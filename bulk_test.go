package ninf_test

// End-to-end coverage for chunked bulk streaming (protocol feature
// level 3): a client Call whose arguments or results exceed the bulk
// threshold travels as a begin frame plus CRC-tagged chunks, encoded
// zero-copy from the caller's slices, interleaved on the wire with
// complete small frames, and reassembled into one pooled buffer on
// the far side. The public API is unchanged — these tests drive the
// ordinary Call/Submit/Fetch surface and vary only the thresholds.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

func bulkVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%251) - 125.5
	}
	return v
}

func checkEcho(t *testing.T, in, out []float64) {
	t.Helper()
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("echo corrupted data at %d: %g != %g", i, out[i], in[i])
		}
	}
}

// TestBulkCallEndToEnd: a 1 MiB echo with aggressive thresholds on
// both sides rides the chunked path in both directions and must be
// byte-identical, with no reassembly buffers left open.
func TestBulkCallEndToEnd(t *testing.T) {
	_, dial := startServer(t, server.Config{BulkThreshold: 4096})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	n := 128 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	rep, err := c.Call("echo", n, data, out)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
	if !c.Multiplexed() {
		t.Fatal("bulk call did not ride a multiplexed session")
	}
	if rep.BytesOut < int64(8*n) || rep.BytesIn < int64(8*n) {
		t.Errorf("bytes = %d out, %d in; want >= %d both ways", rep.BytesOut, rep.BytesIn, 8*n)
	}
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("open reassemblies after call = %d", g)
	}
}

// TestBulkCallDefaultThresholds: with stock configuration a 512 KiB
// vector crosses the 256 KiB default threshold on its own.
func TestBulkCallDefaultThresholds(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
}

// TestBulkDisabledFallsBackMonolithic: threshold -1 turns chunking off
// without touching correctness.
func TestBulkDisabledFallsBackMonolithic(t *testing.T) {
	_, dial := startServer(t, server.Config{BulkThreshold: -1})
	c := newClient(t, dial)
	c.SetBulkThreshold(-1)
	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
}

// TestBulkLockstepPeerFallsBack: against a DisableMux (effectively
// legacy) server the client must transparently re-encode monolithic
// and stay on the lockstep path.
func TestBulkLockstepPeerFallsBack(t *testing.T) {
	_, dial := startServer(t, server.Config{DisableMux: true})
	c := newClient(t, dial)
	c.SetBulkThreshold(1024)
	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	if _, err := c.Call("echo", n, data, out); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, data, out)
	if c.Multiplexed() {
		t.Error("client claims mux against a DisableMux server")
	}
}

// TestBulkSubmitFetchEndToEnd: two-phase with a large argument and a
// large stored result — the fetch reply streams back chunked.
func TestBulkSubmitFetchEndToEnd(t *testing.T) {
	_, dial := startServer(t, server.Config{BulkThreshold: 4096})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	n := 64 << 10
	data := bulkVec(n)
	out := make([]float64, n)
	job, err := c.Submit("echo", n, data, out)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = job.Fetch(false); err == nil {
			break
		}
		if !errors.Is(err, ninf.ErrNotReady) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	checkEcho(t, data, out)
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("open reassemblies after fetch = %d", g)
	}
}

// TestBulkMixedConcurrentCallers: several large transfers and a crowd
// of small calls share one multiplexed connection; every result must
// match its own arguments (cross-Seq corruption is the failure mode a
// broken chunk interleaver produces).
func TestBulkMixedConcurrentCallers(t *testing.T) {
	_, dial := startServer(t, server.Config{PEs: 4, BulkThreshold: 4096})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 3; g++ {
		salt := float64(g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 32 << 10
			data := make([]float64, n)
			for i := range data {
				data[i] = salt * float64(i%97)
			}
			out := make([]float64, n)
			if _, err := c.Call("echo", n, data, out); err != nil {
				errs <- err
				return
			}
			for i := range data {
				if out[i] != data[i] {
					errs <- errors.New("bulk echo cross-caller corruption")
					return
				}
			}
		}()
	}
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if err := c.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("open reassemblies after mixed run = %d", g)
	}
}

// TestBulkFetchDuringCloseFailsRetryable is the drain-race regression
// test: a bulk fetch reply arriving while the client tears down must
// not race its reassembly against pool teardown. The fetch either
// completes normally or fails with a classified error (ErrClientClosed
// chain), and no half-reassembled buffer may survive.
func TestBulkFetchDuringCloseFailsRetryable(t *testing.T) {
	for round := 0; round < 8; round++ {
		_, dial := startServer(t, server.Config{BulkThreshold: 1024})
		c, err := ninf.NewClient(dial)
		if err != nil {
			t.Fatal(err)
		}
		n := 256 << 10 // 2 MiB result: plenty of chunks to land mid-drain
		data := bulkVec(n)
		out := make([]float64, n)
		job, err := c.Submit("echo", n, data, out)
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		fetched := make(chan error, 1)
		go func() {
			_, err := job.Fetch(true)
			fetched <- err
		}()
		// Let the fetch reach the wire, then yank the client out from
		// under the streaming reply. Vary the delay to move the close
		// around within the reassembly window.
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		c.Close()
		err = <-fetched
		if err == nil {
			checkEcho(t, data, out)
		} else if !errors.Is(err, ninf.ErrClientClosed) {
			t.Fatalf("round %d: fetch during close failed unclassified: %v", round, err)
		}
		if g := protocol.OpenBulkReassemblies(); g != 0 {
			t.Fatalf("round %d: open reassemblies after close = %d", round, g)
		}
	}
}

// TestBulkCallAllocBound pins the end-to-end allocation budget of a
// call over a mux session: operands land in pooled server arrays and
// results decode straight into the caller's slice, so an 8 MiB echo
// allocates less than its payload per op (it allocated about 3.4×
// when every operand was materialized on both sides), and a 64 KiB
// echo stays below its payload too.
func TestBulkCallAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of Puts, so pooled storage cannot show")
	}
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	for _, n := range []int{1 << 20, 8 << 10} {
		in := bulkVec(n)
		out := make([]float64, n)
		if _, err := c.Call("echo", n, in, out); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call("echo", n, in, out); err != nil {
					b.Fatal(err)
				}
			}
		})
		checkEcho(t, in, out)
		if !c.Multiplexed() {
			t.Fatal("echo did not ride a mux session")
		}
		if bpo, payload := res.AllocedBytesPerOp(), int64(8*n); bpo >= payload {
			t.Errorf("%d-byte echo allocates %d B/op, want under its payload", payload, bpo)
		} else {
			t.Logf("%d-byte echo: %d B/op, %d allocs/op", payload, bpo, res.AllocsPerOp())
		}
	}
}

// TestBulkRetainedResultSurvivesPoolReuse: a retained result is
// aliased by the server's argument cache, so it must never go back to
// the array pool. A burst of same-size calls, whose arrays would
// recycle exactly that storage, must leave the handle's bytes intact.
func TestBulkRetainedResultSurvivesPoolReuse(t *testing.T) {
	// cdouble's result differs from its operand, so the cache holds
	// the server's own result array, not a copy of the upload.
	_, dial, _ := startCountingServer(t, server.Config{CacheBudget: 16 << 20})
	keeper := newClient(t, dial)
	keeper.SetRetainResults(true)
	const n = 64 << 10 // 512 KiB: pooled, and above the bulk threshold
	in := bulkVec(n)
	kept := make([]float64, n)
	if _, err := keeper.Call("cdouble", n, in, kept); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, in, kept)
	h, ok := keeper.HandleFor(kept)
	if !ok {
		t.Fatal("HandleFor refused a float64 slice")
	}

	burst := newClient(t, dial)
	other := make([]float64, n)
	out := make([]float64, n)
	for k := 0; k < 16; k++ {
		for i := range other {
			other[i] = float64(k*n + i)
		}
		if _, err := burst.Call("cdouble", n, other, out); err != nil {
			t.Fatal(err)
		}
		checkDoubled(t, other, out)
	}

	var got []float64
	if err := keeper.FetchData(context.Background(), h, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fetched %d elements, want %d", len(got), n)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(kept[i]) {
			t.Fatalf("retained result changed at %d: %g, want %g — its storage was pooled", i, got[i], kept[i])
		}
	}
}

// TestBulkTwoPhaseResultSurvivesPoolReuse: a finished two-phase job
// hands its arrays back to the pool once its reply is pre-encoded, so
// a burst of same-size calls recycles them before the fetch. The
// fetched result must still be the job's own.
func TestBulkTwoPhaseResultSurvivesPoolReuse(t *testing.T) {
	_, dial := startServer(t, server.Config{PEs: 1})
	c := newClient(t, dial)
	const n = 64 << 10
	in := bulkVec(n)
	out := make([]float64, n)
	job, err := c.Submit("echo", n, in, out)
	if err != nil {
		t.Fatal(err)
	}
	// One PE: every call below runs after the job has finished.
	other := make([]float64, n)
	tmp := make([]float64, n)
	for k := 0; k < 8; k++ {
		for i := range other {
			other[i] = -float64(k*n + i)
		}
		if _, err := c.Call("echo", n, other, tmp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := job.Fetch(true); err != nil {
		t.Fatal(err)
	}
	checkEcho(t, in, out)
}
