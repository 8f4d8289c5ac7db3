package ninf_test

// End-to-end coverage for the content-addressed argument cache and
// persistent data handles (protocol feature level 4): warm calls ship
// 20-byte digest markers instead of megabyte operands, a mid-upload
// connection cut can never poison the cache, eviction behind the
// client's back degrades to one transparent re-upload, and level-3 or
// cache-disabled peers interoperate bit-identically with no digest
// framing on the wire.

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"

	"ninf"
	"ninf/internal/idl"
	"ninf/internal/metaserver"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// startCountingServer runs a server whose one routine, cdouble,
// doubles v into w and counts invocations — so exactly-once delivery
// under faults is asserted, not assumed.
func startCountingServer(t *testing.T, cfg server.Config) (*server.Server, func() (net.Conn, error), *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	reg := server.NewRegistry()
	err := reg.RegisterIDL(`
Define cdouble(mode_in int n, mode_in double v[n], mode_out double w[n])
    Calls "go" cdouble(n, v, w);
`, map[string]server.Handler{
		"cdouble": func(ctx context.Context, args []idl.Value) error {
			count.Add(1)
			v := args[1].([]float64)
			w := args[2].([]float64)
			for i := range v {
				w[i] = 2 * v[i]
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()
	return s, func() (net.Conn, error) { return net.Dial("tcp", addr) }, &count
}

func checkDoubled(t *testing.T, v, w []float64) {
	t.Helper()
	for i := range v {
		if w[i] != 2*v[i] {
			t.Fatalf("w[%d] = %g, want %g — stale or corrupt cached operand", i, w[i], 2*v[i])
		}
	}
}

const cacheTestN = 16 << 10 // 128 KiB of float64 per vector

// TestArgCacheWarmCall: the second call with the same operand ships
// digest markers instead of the vector, the server resolves it from
// cache, and the counters say so — end to end through the metaserver's
// polled Stats as well.
func TestArgCacheWarmCall(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		Hostname: "cachesrv", BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	v := bulkVec(cacheTestN)
	w := make([]float64, cacheTestN)
	rep1, err := c.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)

	clear(w)
	rep2, err := c.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if got := count.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}
	if rep2.BytesOut*20 > rep1.BytesOut {
		t.Fatalf("warm call shipped %d bytes vs cold %d; want ≥20× smaller", rep2.BytesOut, rep1.BytesOut)
	}
	hits, misses, _, _, used := s.CacheCounters()
	if hits < 1 || used == 0 {
		t.Fatalf("cache counters after warm call: hits=%d used=%d", hits, used)
	}
	_ = misses

	// The counters ride the Stats wire into the metaserver's snapshot.
	m := metaserver.New(metaserver.Config{})
	if err := m.AddServer("cachesrv", "x", 100, dial); err != nil {
		t.Fatal(err)
	}
	if m.PollOnce() != 1 {
		t.Fatal("poll failed")
	}
	snap := m.Servers()[0]
	if snap.Stats.CacheHits < 1 || snap.Stats.CacheBudget != 1<<20 {
		t.Fatalf("snapshot cache counters = %+v", snap.Stats)
	}
}

// cutConn severs the connection once cumulative writes cross limit
// while armed, simulating a WAN drop mid-way through a bulk upload.
type cutConn struct {
	net.Conn
	armed *atomic.Bool
	limit int64
	n     int64
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.armed.Load() && c.n+int64(len(p)) > c.limit {
		if c.armed.CompareAndSwap(true, false) {
			c.Conn.Close()
			return 0, syscall.ECONNRESET
		}
	}
	c.n += int64(len(p))
	return c.Conn.Write(p)
}

// TestCacheMissUploadCutUnpoisoned: the connection dies mid-way
// through the cache-miss bulk upload. The partially received operand
// must never enter the cache (reassembly did not complete), the
// client's retry must complete the call exactly once, and a follow-up
// warm call must compute from correct bytes.
func TestCacheMissUploadCutUnpoisoned(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	var armed atomic.Bool
	armed.Store(true)
	cutDial := func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &cutConn{Conn: conn, armed: &armed, limit: 32 << 10}, nil
	}
	c := newClient(t, cutDial)
	c.SetBulkThreshold(4096)

	v := bulkVec(cacheTestN)
	w := make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, v, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if armed.Load() {
		t.Fatal("vacuous: the upload never crossed the cut limit")
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("handler ran %d times across the cut retry, want exactly 1", got)
	}

	// Warm follow-up: whatever the cache holds for this digest is what
	// the server computes from. Wrong bytes here = poisoned cache.
	clear(w)
	rep, err := c.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if rep.BytesOut > 8*cacheTestN/4 {
		t.Fatalf("follow-up call shipped %d bytes; cache should be warm after the retried upload", rep.BytesOut)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}
	hits, _, _, _, _ := s.CacheCounters()
	if hits < 1 {
		t.Fatal("warm follow-up did not hit the cache")
	}
}

// TestCacheEvictionReupload: the server evicts behind the client's
// optimistic warm set. The digest-marker call answers CodeCacheMiss
// without executing; the client's retry re-queries, re-uploads, and
// the call completes — exactly once per logical call.
func TestCacheEvictionReupload(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		// Budget fits one vector (plus slack), never two: the second
		// operand evicts the first.
		BulkThreshold: 4096, CacheBudget: 160 << 10,
	})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	a := bulkVec(cacheTestN)
	b := make([]float64, cacheTestN)
	for i := range b {
		b[i] = float64(i%97) + 0.25
	}
	w := make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, a, w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("cdouble", cacheTestN, b, w); err != nil {
		t.Fatal(err)
	}
	// a is evicted; the client still believes it warm.
	clear(w)
	if _, err := c.Call("cdouble", cacheTestN, a, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, a, w)
	if got := count.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3 (the miss reply must not execute)", got)
	}
	_, misses, evictions, _, _ := s.CacheCounters()
	if evictions < 1 {
		t.Fatal("vacuous: budget pressure never evicted")
	}
	if misses < 1 {
		t.Fatal("stale warm set never produced a cache miss")
	}
}

// TestCacheDataHandles: with retention on, a call's large result stays
// server-resident; HandleFor + FetchData retrieve it by digest without
// re-running anything, and an unknown handle fails with a cache miss.
func TestCacheDataHandles(t *testing.T) {
	_, dial, count := startCountingServer(t, server.Config{
		BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)
	c.SetRetainResults(true)

	v := bulkVec(cacheTestN)
	w := make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, v, w); err != nil {
		t.Fatal(err)
	}
	h, ok := ninf.HandleFor(w)
	if !ok {
		t.Fatal("HandleFor refused a float64 slice")
	}
	var got []float64
	if err := c.FetchData(context.Background(), h, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w) {
		t.Fatalf("fetched %d elements, want %d", len(got), len(w))
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("fetched[%d] = %g, want %g", i, got[i], w[i])
		}
	}
	if count.Load() != 1 {
		t.Fatal("FetchData re-ran the routine")
	}

	// A digest the server never retained answers CodeCacheMiss.
	strange := make([]float64, cacheTestN)
	for i := range strange {
		strange[i] = -float64(i) * 3.5
	}
	hs, _ := ninf.HandleFor(strange)
	var dst []float64
	err := c.FetchData(context.Background(), hs, &dst)
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeCacheMiss {
		t.Fatalf("fetch of unknown handle: err = %v, want CodeCacheMiss", err)
	}
}

// TestCacheLevel3PeerInterop: against a server with no cache the
// session negotiates level 4 without the cache flag, so the client
// must emit no digest framing — the wire is the plain level-3 byte
// stream. The same holds with the cache disabled client-side, and the
// bytes shipped must be identical in both worlds.
func TestCacheLevel3PeerInterop(t *testing.T) {
	v := bulkVec(cacheTestN)

	// Cacheless server, cache-willing client.
	sPlain, dialPlain, _ := startCountingServer(t, server.Config{BulkThreshold: 4096})
	c1 := newClient(t, dialPlain)
	c1.SetBulkThreshold(4096)
	w := make([]float64, cacheTestN)
	repPlain, err := c1.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if !c1.Multiplexed() {
		t.Fatal("client did not negotiate a session")
	}
	if h, m, e, p, u := sPlain.CacheCounters(); h|m|e|p|u != 0 {
		t.Fatalf("cacheless server has cache counters %d/%d/%d/%d/%d", h, m, e, p, u)
	}

	// Cache-enabled server, client opted out: no digest query, no
	// digest markers, and byte-for-byte the same request size.
	sCache, dialCache, _ := startCountingServer(t, server.Config{
		BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	c2 := newClient(t, dialCache)
	c2.SetBulkThreshold(4096)
	c2.SetArgCache(false)
	clear(w)
	repOff, err := c2.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if hits, misses, _, _, _ := sCache.CacheCounters(); hits != 0 || misses != 0 {
		t.Fatalf("opted-out client produced digest traffic: hits=%d misses=%d", hits, misses)
	}
	if repOff.BytesOut != repPlain.BytesOut {
		t.Fatalf("level-3 fallback not bit-identical: %d bytes vs %d", repOff.BytesOut, repPlain.BytesOut)
	}

	// Re-enabled, the same client+server pair goes warm — proving the
	// opt-out was the only thing holding level 4 back.
	c2.SetArgCache(true)
	if _, err := c2.Call("cdouble", cacheTestN, v, w); err != nil {
		t.Fatal(err)
	}
	clear(w)
	repWarm, err := c2.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if repWarm.BytesOut*20 > repPlain.BytesOut {
		t.Fatalf("re-enabled cache never went warm: %d bytes", repWarm.BytesOut)
	}
}

// TestCacheTransactionAffinityChain: a transaction whose downstream
// call consumes an upstream result must (a) place the downstream call
// on the server holding that result — the affinity hint — and (b) bind
// the dependency via digest instead of re-uploading it, since
// transactions retain results.
func TestCacheTransactionAffinityChain(t *testing.T) {
	// Vectors above the client's default bulk threshold: transaction
	// clients run stock thresholds.
	const n = 64 << 10 // 512 KiB
	s1, dial1, count1 := startCountingServer(t, server.Config{
		Hostname: "srvA", BulkThreshold: 4096, CacheBudget: 4 << 20,
	})
	s2, dial2, count2 := startCountingServer(t, server.Config{
		Hostname: "srvB", BulkThreshold: 4096, CacheBudget: 4 << 20,
	})
	m := metaserver.New(metaserver.Config{})
	t.Cleanup(func() { m.Close() })
	if err := m.AddServer("srvA", "x", 100, dial1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("srvB", "x", 100, dial2); err != nil {
		t.Fatal(err)
	}

	v := bulkVec(n)
	mid := make([]float64, n)
	out := make([]float64, n)
	tx := ninf.BeginTransaction(m)
	tx.Call("cdouble", n, v, mid)
	tx.Call("cdouble", n, mid, out)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if out[i] != 4*v[i] {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], 4*v[i])
		}
	}
	// Wherever the upstream call landed, affinity must have pulled the
	// downstream call to the same server...
	c1, c2 := count1.Load(), count2.Load()
	if !(c1 == 2 && c2 == 0) && !(c1 == 0 && c2 == 2) {
		t.Fatalf("dependency chain split across servers: srvA ran %d, srvB ran %d", c1, c2)
	}
	// ...where the retained upstream result made `mid` warm, so the
	// downstream call chained the handle instead of re-uploading.
	h1, _, _, _, _ := s1.CacheCounters()
	h2, _, _, _, _ := s2.CacheCounters()
	if h1+h2 < 1 {
		t.Fatal("downstream call re-uploaded instead of chaining the retained result")
	}
}
