package ninf_test

// Version negotiation and session-routing behavior of the multiplexed
// client, in both directions: a mux-capable client against a legacy
// (lockstep-only) server must degrade transparently, and a client
// pinned to lockstep by its callbacks must interoperate with a
// mux-capable server.

import (
	"sync"
	"testing"

	"ninf"
	"ninf/internal/server"
)

// callOnce runs one verified dmmul call.
func callOnce(t *testing.T, c *ninf.Client) {
	t.Helper()
	const n = 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	got := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i + 1)
		b[i] = float64((i % 5) + 1)
	}
	want := make([]float64, n*n)
	mmul(n, a, b, want)
	if _, err := c.Call("dmmul", n, a, b, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dmmul result differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestMuxNegotiationUpgrades: against a mux-capable server the first
// session verb negotiates protocol version 2 and later calls ride the
// multiplexed session.
func TestMuxNegotiationUpgrades(t *testing.T) {
	_, dial := startServer(t, server.Config{Hostname: "muxsrv"})
	c := newClient(t, dial)

	if c.Multiplexed() {
		t.Fatal("client claims a session before any verb ran")
	}
	callOnce(t, c)
	if !c.Multiplexed() {
		t.Fatal("call against a mux-capable server did not establish a session")
	}

	// Concurrent calls demultiplex correctly over the one session.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			callOnce(t, c)
		}()
	}
	wg.Wait()
}

// TestMuxClientAgainstLegacyServer: a lockstep-only server refuses the
// Hello like a pre-mux peer; the client pins itself to the lockstep
// paths and every verb keeps working.
func TestMuxClientAgainstLegacyServer(t *testing.T) {
	_, dial := startServer(t, server.Config{Hostname: "legacy", DisableMux: true})
	c := newClient(t, dial)

	callOnce(t, c)
	if c.Multiplexed() {
		t.Fatal("client claims a mux session against a DisableMux server")
	}
	// The refusal is sticky: no re-probe, still correct.
	callOnce(t, c)
	if c.Multiplexed() {
		t.Fatal("legacy pin did not stick")
	}

	// Two-phase transfer over the fallback path.
	n := 3
	in := []float64{1, 2, 3}
	out := make([]float64, n)
	job, err := c.Submit("echo", n, in, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Fetch(true); err != nil {
		t.Fatal(err)
	}
	if out[2] != 3 {
		t.Fatalf("echo via legacy fallback = %v", out)
	}
}

// TestLockstepClientAgainstMuxServer: a client holding callbacks
// never offers Hello, so a mux-capable server serves its one
// connection lockstep like any legacy client. Removing the last
// callback retires that connection and the next dial upgrades.
func TestLockstepClientAgainstMuxServer(t *testing.T) {
	_, dial := startServer(t, server.Config{Hostname: "muxsrv"})
	c := newClient(t, dial)
	c.RegisterCallback("progress", func(data []byte) ([]byte, error) { return nil, nil })

	callOnce(t, c)
	if c.Multiplexed() {
		t.Fatal("a callback-holding client negotiated a session")
	}

	c.RegisterCallback("progress", nil)
	callOnce(t, c)
	if !c.Multiplexed() {
		t.Fatal("removing the last callback did not re-negotiate the connection")
	}
}

// TestCallbacksPinLockstep: registering a client callback closes any
// live session and routes later calls over lockstep — the §2.3
// callback facility needs a quiet parked connection, which a stream
// of interleaved sequenced frames is not.
func TestCallbacksPinLockstep(t *testing.T) {
	_, dial := startServer(t, server.Config{Hostname: "muxsrv"})
	c := newClient(t, dial)

	callOnce(t, c)
	if !c.Multiplexed() {
		t.Fatal("no session before registering the callback")
	}
	c.RegisterCallback("progress", func(data []byte) ([]byte, error) { return nil, nil })
	if c.Multiplexed() {
		t.Fatal("registering a callback left the mux session live")
	}
	callOnce(t, c)
	if c.Multiplexed() {
		t.Fatal("a callback-holding client re-established a session")
	}
}
