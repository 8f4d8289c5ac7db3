package ninf_test

// The restart chaos suite proves crash recovery end to end: a
// multi-client two-phase workload runs against a journaled server
// behind a seeded fault injector, the server is killed the hard way
// mid-run (listener gone, live connections partitioned, process state
// abandoned — never drained), and a fresh incarnation replays the
// journal on the same address. Every submission must still complete
// exactly once: replayed jobs keep their IDs and idempotency keys, so
// client retries re-attach instead of duplicating work, and nothing a
// client ever got a SubmitOK for may be lost. Separate regressions pin
// the epoch side: handles minted against the dead incarnation fail
// with ErrStaleHandle, the warm-digest set is flushed, and a fetch
// from a journal-less restart surfaces ErrJobNotFound — terminal, with
// Resubmit as the sanctioned recovery.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/idl"
	"ninf/internal/server"
	"ninf/internal/server/journal"
)

// tagCounter counts handler executions per submission tag, so
// duplicated execution after the restart is asserted away per job, not
// just in aggregate.
type tagCounter struct {
	mu sync.Mutex
	n  map[int]int
}

func (c *tagCounter) inc(tag int) {
	c.mu.Lock()
	if c.n == nil {
		c.n = make(map[int]int)
	}
	c.n[tag]++
	c.mu.Unlock()
}

func (c *tagCounter) get(tag int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[tag]
}

func (c *tagCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := 0
	for _, v := range c.n {
		t += v
	}
	return t
}

// restartRegistry builds a registry whose one routine, rdouble,
// doubles v into w and charges the execution to tag v[0]. A non-nil
// hold runs at the start of every execution.
func restartRegistry(t *testing.T, execs *tagCounter, hold func()) *server.Registry {
	t.Helper()
	reg := server.NewRegistry()
	err := reg.RegisterIDL(`
Define rdouble(mode_in int n, mode_in double v[n], mode_out double w[n])
    Calls "go" rdouble(n, v, w);
`, map[string]server.Handler{
		"rdouble": func(_ context.Context, args []idl.Value) error {
			if hold != nil {
				hold()
			}
			v := args[1].([]float64)
			w := args[2].([]float64)
			execs.inc(int(v[0]))
			for i := range v {
				w[i] = 2 * v[i]
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// relisten rebinds addr, retrying briefly: the dead incarnation's
// listener may take a moment to release the port.
func relisten(addr string) (net.Listener, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			return l, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosRestartJournalExactlyOnce is the acceptance scenario: four
// clients push two-phase submissions through a seeded fault injector
// while the journaled server is crashed mid-run and restarted from its
// journal on the same address. Every submission must deliver exactly
// one verified result, no journaled job may be lost, and no job may
// execute twice in the surviving incarnation.
func TestChaosRestartJournalExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	const (
		clients = 4
		rounds  = 8
		n       = 64
	)
	dir := t.TempDir()
	var exec1, exec2 tagCounter

	// The first incarnation's 4th execution fires the crash and stays
	// unfinished across it: its acknowledged submit is journaled with no
	// completion, so replay provably has work to recover. (A crash
	// timed by polling Stats could land after the in-flight job was
	// delivered, and an empty journal would prove nothing.)
	crash, resume := make(chan struct{}), make(chan struct{})
	var started atomic.Int32
	hold := func() {
		if started.Add(1) == 4 {
			close(crash)
			<-resume
		}
	}
	s1 := server.New(server.Config{Hostname: "wal1", PEs: 4}, restartRegistry(t, &exec1, hold))
	if _, err := s1.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s1.Serve(l1)
	// The crash below abandons s1 without draining; Close it only at
	// cleanup so straggling handlers stop. By then the new incarnation
	// owns the journal file (the replay rewrite renamed over it), so the
	// dead server's late appends land in an unlinked inode.
	t.Cleanup(func() { s1.Close() })
	addr := l1.Addr().String()

	in := faultnet.New(faultnet.Plan{
		Seed:             chaosSeed + 33,
		ResetProb:        1.0 / 40,
		PartialWriteProb: 1.0 / 40,
		StallProb:        1.0 / 60,
		StallDuration:    100 * time.Millisecond,
		SafeOps:          2,
	})
	dial := in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })

	// Crash-and-restart monitor: once the first incarnation is running
	// its 4th job, partition it, abandon it, and bring up a fresh
	// incarnation from the journal on the same address. The held job
	// finishes on the dead incarnation only after the new one has
	// replayed the journal.
	type restarted struct {
		rec server.Recovery
		s2  *server.Server
		err error
	}
	done := make(chan restarted, 1)
	go func() {
		defer close(resume)
		select {
		case <-crash:
		case <-time.After(20 * time.Second):
			done <- restarted{err: errors.New("workload drained before the crash fired")}
			return
		}
		in.Partition()
		l1.Close()
		s2 := server.New(server.Config{Hostname: "wal2", PEs: 4}, restartRegistry(t, &exec2, nil))
		rec, err := s2.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways})
		if err != nil {
			done <- restarted{err: err}
			return
		}
		l2, err := relisten(addr)
		if err != nil {
			done <- restarted{err: err}
			return
		}
		go s2.Serve(l2)
		in.Heal()
		done <- restarted{rec: rec, s2: s2}
	}()

	ctx := testContext(t)
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := ninf.NewClient(dial)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			cl.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 14, BaseDelay: 5 * time.Millisecond, MaxDelay: 150 * time.Millisecond})
			for r := 0; r < rounds; r++ {
				tag := c*1000 + r
				v := make([]float64, n)
				v[0] = float64(tag)
				for j := 1; j < n; j++ {
					v[j] = float64(tag + j)
				}
				w := make([]float64, n)
				j, err := cl.SubmitContext(ctx, "rdouble", n, v, w)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: submit: %w", c, r, err)
					return
				}
				_, err = j.FetchContext(ctx, true)
				if errors.Is(err, ninf.ErrJobNotFound) {
					// The server forgot the job (journal-less window or an
					// expired result): re-enter the same submission under its
					// original idempotency key and fetch again.
					if err = j.Resubmit(ctx); err == nil {
						_, err = j.FetchContext(ctx, true)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: fetch: %w", c, r, err)
					return
				}
				for i := range v {
					if w[i] != 2*v[i] {
						errs <- fmt.Errorf("client %d round %d: w[%d] = %g, want %g", c, r, i, w[i], 2*v[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var res restarted
	select {
	case res = <-done:
	case <-ctx.Done():
		t.Fatal("restart monitor never reported")
	}
	if res.err != nil {
		t.Fatalf("crash/restart failed: %v", res.err)
	}
	t.Cleanup(func() { res.s2.Close() })

	// The journal actually carried state across: the crash struck after
	// acknowledged work existed, so replay had something to recover.
	t.Logf("recovery: %+v; exec1 total %d, exec2 total %d; faults: %v",
		res.rec, exec1.total(), exec2.total(), in.Counters())
	if res.rec.Requeued+res.rec.Restored == 0 {
		t.Error("replay recovered nothing: the crash landed before any journaled work")
	}
	if res.rec.Dropped != 0 {
		t.Errorf("replay dropped %d journal records", res.rec.Dropped)
	}
	if in.Counters().Total() == 0 {
		t.Error("no faults injected: the chaos run proved nothing")
	}
	if exec2.total() == 0 {
		t.Error("second incarnation executed nothing; the restart never carried traffic")
	}

	// Exactly-once in the surviving incarnation: idempotency-key dedupe
	// (live and replayed alike) must keep every tag's execution count on
	// the restarted server at most one, however many submit retries the
	// faults forced. Executions the dead incarnation started and lost are
	// crash casualties — delivery, verified above, is what is exactly-once.
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			tag := c*1000 + r
			if got := exec2.get(tag); got > 1 {
				t.Errorf("tag %d executed %d times on the restarted server", tag, got)
			}
			if exec1.get(tag)+exec2.get(tag) == 0 {
				t.Errorf("tag %d delivered a result but never executed", tag)
			}
		}
	}
}

// TestRestartEpochInvalidatesHandles pins the epoch side of recovery:
// a restart mints a new incarnation epoch, and a client that observes
// it must flush its warm-digest set (the next call re-uploads full
// operands) and refuse data handles minted against the dead
// incarnation with ErrStaleHandle.
func TestRestartEpochInvalidatesHandles(t *testing.T) {
	const nv = 16 << 10
	dir := t.TempDir()
	var exec1, exec2 tagCounter

	s1 := server.New(server.Config{Hostname: "epoch1", PEs: 2, BulkThreshold: 4096, CacheBudget: 4 << 20}, restartRegistry(t, &exec1, nil))
	if _, err := s1.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s1.Serve(l1)
	t.Cleanup(func() { s1.Close() })
	addr := l1.Addr().String()

	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	c.SetBulkThreshold(4096)
	c.SetRetainResults(true)
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})

	v := bulkVec(nv)
	v[0] = 1
	w := make([]float64, nv)
	rep1, err := c.Call("rdouble", nv, v, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ServerEpoch(); got != 1 {
		t.Fatalf("epoch after first call = %d, want 1", got)
	}
	// Warm the digest set and mint an epoch-bound handle to the result.
	clear(w)
	rep2, err := c.Call("rdouble", nv, v, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BytesOut*4 > rep1.BytesOut {
		t.Fatalf("warm call shipped %d bytes vs cold %d; cache never warmed, the test is vacuous", rep2.BytesOut, rep1.BytesOut)
	}
	h, ok := c.HandleFor(w)
	if !ok {
		t.Fatal("HandleFor refused a float64 slice")
	}
	var got []float64
	if err := c.FetchData(context.Background(), h, &got); err != nil {
		t.Fatalf("FetchData against the minting incarnation: %v", err)
	}

	// Crash and restart on the same address: epoch 2, empty cache. Close
	// severs the client's live sessions too (this test runs no injector
	// to partition them), forcing a re-dial that meets the new epoch.
	l1.Close()
	s1.Close()
	s2 := server.New(server.Config{Hostname: "epoch2", PEs: 2, BulkThreshold: 4096, CacheBudget: 4 << 20}, restartRegistry(t, &exec2, nil))
	if _, err := s2.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	l2, err := relisten(addr)
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(l2)
	t.Cleanup(func() { s2.Close() })

	// Any exchange that renegotiates observes the new epoch. Stats is a
	// one-shot roundtrip, so the first attempt may just burn the dead
	// connection; the next one re-dials and meets epoch 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Stats(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("stats after restart: %v", err)
		}
	}
	if got := c.ServerEpoch(); got != 2 {
		t.Fatalf("epoch after restart = %d, want 2", got)
	}

	// The stale handle is refused client-side, with a classified error.
	err = c.FetchData(context.Background(), h, &got)
	if !errors.Is(err, ninf.ErrStaleHandle) {
		t.Fatalf("FetchData with a dead incarnation's handle = %v, want ErrStaleHandle", err)
	}

	// The warm set was flushed: the next call must ship full operands
	// again (digest markers alone would be ~KB against a 128 KiB vector).
	clear(w)
	rep3, err := c.Call("rdouble", nv, v, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.BytesOut*4 < rep1.BytesOut {
		t.Fatalf("post-restart call shipped only %d bytes (cold %d): warm set survived the epoch change", rep3.BytesOut, rep1.BytesOut)
	}
	for i := range v {
		if w[i] != 2*v[i] {
			t.Fatalf("post-restart result corrupt at %d", i)
		}
	}
	// A fresh handle minted at the new epoch works.
	h2, _ := c.HandleFor(w)
	if err := c.FetchData(context.Background(), h2, &got); err != nil {
		t.Fatalf("FetchData with a current-epoch handle: %v", err)
	}
}

// scaleRegistry defines one routine, f. Version 1 doubles v into w;
// version 2 adds a scale argument s before v, so a client still holding
// version 1's interface would encode a call version 2 cannot decode.
func scaleRegistry(t *testing.T, version int) *server.Registry {
	t.Helper()
	reg := server.NewRegistry()
	src := `
Define f(mode_in int n, mode_in double v[n], mode_out double w[n])
    Calls "go" f(n, v, w);
`
	h := func(_ context.Context, args []idl.Value) error {
		v, w := args[1].([]float64), args[2].([]float64)
		for i := range v {
			w[i] = 2 * v[i]
		}
		return nil
	}
	if version == 2 {
		src = `
Define f(mode_in int n, mode_in double s, mode_in double v[n], mode_out double w[n])
    Calls "go" f(n, s, v, w);
`
		h = func(_ context.Context, args []idl.Value) error {
			sc, v, w := args[1].(float64), args[2].([]float64), args[3].([]float64)
			for i := range v {
				w[i] = sc * v[i]
			}
			return nil
		}
	}
	if err := reg.RegisterIDL(src, map[string]server.Handler{"f": h}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestEpochChangeRefetchesInterface: a journaled server restarts on the
// same journal directory and address, and its registry now gives f a
// different signature. A client that cached f's interface before the
// restart must meet the new incarnation's epoch, drop the cached
// interface, and call the new f correctly — a long-lived client (one a
// scheduler shares across transactions) lives through restarts.
func TestEpochChangeRefetchesInterface(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	s1 := server.New(server.Config{Hostname: "sig1"}, scaleRegistry(t, 1))
	if _, err := s1.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s1.Serve(l1)
	t.Cleanup(func() { s1.Close() })
	addr := l1.Addr().String()

	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	w := make([]float64, n)
	if _, err := c.Call("f", n, v, w); err != nil {
		t.Fatal(err)
	}
	if w[n-1] != 2*v[n-1] || c.ServerEpoch() != 1 {
		t.Fatalf("before restart: w = %v, epoch %d", w, c.ServerEpoch())
	}

	l1.Close()
	s1.Close()
	s2 := server.New(server.Config{Hostname: "sig2"}, scaleRegistry(t, 2))
	if _, err := s2.AttachJournal(dir, journal.Options{Fsync: journal.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	l2, err := relisten(addr)
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(l2)
	t.Cleanup(func() { s2.Close() })

	clear(w)
	if _, err := c.Call("f", n, 3.0, v, w); err != nil {
		t.Fatalf("call of the redefined f after the restart: %v", err)
	}
	for i := range v {
		if w[i] != 3*v[i] {
			t.Fatalf("w[%d] = %g, want %g", i, w[i], 3*v[i])
		}
	}
	if got := c.ServerEpoch(); got != 2 {
		t.Errorf("epoch after restart = %d, want 2", got)
	}
	info, err := c.Interface("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Params) != 4 {
		t.Errorf("cached interface of f has %d parameters, want the new 4", len(info.Params))
	}
}

// TestRestartUnknownJobResubmit pins client re-attachment without a
// journal: a fetch across a journal-less restart surfaces the terminal
// ErrJobNotFound (never retried as a transport fault), and Resubmit
// re-enters the submission under its original idempotency key so the
// job still executes exactly once per incarnation.
func TestRestartUnknownJobResubmit(t *testing.T) {
	var exec1, exec2 tagCounter
	s1 := server.New(server.Config{Hostname: "vol1", PEs: 2}, restartRegistry(t, &exec1, nil))
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s1.Serve(l1)
	t.Cleanup(func() { s1.Close() })
	addr := l1.Addr().String()

	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})

	const n = 8
	v := []float64{9, 1, 2, 3, 4, 5, 6, 7}
	w := make([]float64, n)
	ctx := testContext(t)
	j, err := c.SubmitContext(ctx, "rdouble", n, v, w)
	if err != nil {
		t.Fatal(err)
	}

	// Journal-less restart on the same address: the job is gone.
	l1.Close()
	s1.Close()
	s2 := server.New(server.Config{Hostname: "vol2", PEs: 2}, restartRegistry(t, &exec2, nil))
	l2, err := relisten(addr)
	if err != nil {
		t.Fatal(err)
	}
	go s2.Serve(l2)
	t.Cleanup(func() { s2.Close() })

	_, err = j.FetchContext(ctx, true)
	if !errors.Is(err, ninf.ErrJobNotFound) {
		t.Fatalf("fetch across journal-less restart = %v, want ErrJobNotFound", err)
	}
	if ninf.Retryable(err) {
		t.Fatal("ErrJobNotFound classified retryable: fetch retries would spin on a terminal condition")
	}
	if errors.Is(err, ninf.ErrNotReady) {
		t.Fatal("ErrJobNotFound conflated with ErrNotReady")
	}

	if err := j.Resubmit(ctx); err != nil {
		t.Fatalf("Resubmit: %v", err)
	}
	if _, err := j.FetchContext(ctx, true); err != nil {
		t.Fatalf("fetch after Resubmit: %v", err)
	}
	for i := range v {
		if w[i] != 2*v[i] {
			t.Fatalf("resubmitted result corrupt at %d: %g", i, w[i])
		}
	}
	if got := exec2.get(9); got != 1 {
		t.Fatalf("resubmitted job executed %d times on the new server, want 1", got)
	}
}
