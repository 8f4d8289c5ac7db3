package ninf_test

// A Client holds exactly one connection, against a multiplexed server
// and a lockstep (DisableMux) server alike. These tests count the
// dialer: every verb rides the one connection, and a connection broken
// by a fault is replaced by a fresh dial, never reused.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/library"
	"ninf/internal/server"
)

// faultConn wraps a connection with an injectable write fault and a
// close flag, so tests can break the client's connection on demand.
type faultConn struct {
	net.Conn
	failWrites *atomic.Bool
	closed     atomic.Bool
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// recListener records the server side of each accepted connection so
// tests can kill connections from the far end.
type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *recListener) closeAccepted() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// serverKinds are the two server kinds every connection test runs
// against: multiplexing on, and DisableMux answering Hello like a
// pre-mux (level-1) server.
var serverKinds = []struct {
	name string
	cfg  server.Config
}{
	{"mux", server.Config{Hostname: "kind"}},
	{"lockstep", server.Config{Hostname: "kind", DisableMux: true}},
}

// forEachKind runs f as a subtest against each server kind.
func forEachKind(t *testing.T, f func(t *testing.T, cfg server.Config)) {
	for _, k := range serverKinds {
		t.Run(k.name, func(t *testing.T) { f(t, k.cfg) })
	}
}

// startConnServer launches a server on a recording listener and
// returns a counting, fault-injecting dialer.
func startConnServer(t *testing.T, cfg server.Config) (*recListener, *atomic.Int64, *atomic.Bool, func() (net.Conn, error), func() *faultConn) {
	t.Helper()
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg, reg)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &recListener{Listener: inner}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })

	dials := new(atomic.Int64)
	failWrites := new(atomic.Bool)
	var mu sync.Mutex
	var last *faultConn
	dial := func() (net.Conn, error) {
		dials.Add(1)
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			return nil, err
		}
		fc := &faultConn{Conn: c, failWrites: failWrites}
		mu.Lock()
		last = fc
		mu.Unlock()
		return fc, nil
	}
	lastConn := func() *faultConn {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
	return l, dials, failWrites, dial, lastConn
}

func asyncPing(t *testing.T, c *ninf.Client) {
	t.Helper()
	n := 4
	in := make([]float64, n)
	out := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	if _, err := c.CallAsync("echo", n, in, out).Wait(); err != nil {
		t.Fatal(err)
	}
	if out[n-1] != in[n-1] {
		t.Fatalf("echo out = %v", out)
	}
}

// TestNewClientDialsOnFirstExchange: NewClient makes no connection;
// the first exchange dials the client's one connection, so a scheduler
// can hold a Client for every server it knows without touching them.
func TestNewClientDialsOnFirstExchange(t *testing.T) {
	forEachKind(t, func(t *testing.T, cfg server.Config) {
		_, dials, _, dial, _ := startConnServer(t, cfg)
		c := newClient(t, dial)
		if got := dials.Load(); got != 0 {
			t.Fatalf("dials after NewClient = %d, want 0", got)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if got := dials.Load(); got != 1 {
			t.Fatalf("dials after the first Ping = %d, want 1", got)
		}
	})
}

// TestOneConnPerClient: every verb — control plane, interface fetch,
// blocking, concurrent async and two-phase calls — rides the one
// connection the first exchange dialed, against either server kind.
func TestOneConnPerClient(t *testing.T) {
	forEachKind(t, func(t *testing.T, cfg server.Config) {
		_, dials, _, dial, _ := startConnServer(t, cfg)
		c := newClient(t, dial)
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.List(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Interface("dmmul"); err != nil {
			t.Fatal(err)
		}
		callOnce(t, c)
		var calls []*ninf.AsyncCall
		for i := 0; i < 8; i++ {
			calls = append(calls, c.CallAsync("echo", 2, []float64{1, 2}, make([]float64, 2)))
		}
		for _, a := range calls {
			if _, err := a.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		job, err := c.Submit("echo", 2, []float64{1, 2}, make([]float64, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Fetch(true); err != nil {
			t.Fatal(err)
		}
		if got := dials.Load(); got != 1 {
			t.Errorf("dials = %d, want 1", got)
		}
		if got, want := c.Multiplexed(), !cfg.DisableMux; got != want {
			t.Errorf("Multiplexed() = %v, want %v", got, want)
		}
	})
}

// TestLockstepInteropEveryVerb runs every client verb against both
// server kinds and requires identical results: a level-1 peer serves
// each verb exactly as the multiplexed path does.
func TestLockstepInteropEveryVerb(t *testing.T) {
	echo := func(c *ninf.Client, call func(in, out []float64) error) (string, error) {
		in := []float64{3, 1, 4, 1, 5}
		out := make([]float64, len(in))
		err := call(in, out)
		return fmt.Sprint(out), err
	}
	verbs := []struct {
		name string
		run  func(c *ninf.Client) (string, error)
	}{
		{"ping", func(c *ninf.Client) (string, error) { return "pong", c.Ping() }},
		{"list", func(c *ninf.Client) (string, error) {
			names, err := c.List()
			return strings.Join(names, ","), err
		}},
		{"stats", func(c *ninf.Client) (string, error) {
			st, err := c.Stats()
			return fmt.Sprint(st.Hostname, st.PEs, st.TotalCalls), err
		}},
		{"interface", func(c *ninf.Client) (string, error) {
			info, err := c.Interface("dmmul")
			if err != nil {
				return "", err
			}
			return fmt.Sprint(info.Name, len(info.Params)), nil
		}},
		{"interface-unknown", func(c *ninf.Client) (string, error) {
			_, err := c.Interface("nosuchroutine")
			return "", err
		}},
		{"call", func(c *ninf.Client) (string, error) {
			return echo(c, func(in, out []float64) error {
				_, err := c.Call("echo", len(in), in, out)
				return err
			})
		}},
		{"call-async", func(c *ninf.Client) (string, error) {
			return echo(c, func(in, out []float64) error {
				_, err := c.CallAsync("echo", len(in), in, out).Wait()
				return err
			})
		}},
		{"submit-fetch", func(c *ninf.Client) (string, error) {
			return echo(c, func(in, out []float64) error {
				job, err := c.Submit("echo", len(in), in, out)
				if err != nil {
					return err
				}
				_, err = job.Fetch(true)
				return err
			})
		}},
		{"fetch-data", func(c *ninf.Client) (string, error) {
			h, _ := ninf.HandleFor([]float64{1})
			var dst []float64
			return "", c.FetchData(context.Background(), h, &dst)
		}},
		{"trace", func(c *ninf.Client) (string, error) {
			tr, err := c.Trace()
			var parts []string
			for _, r := range tr {
				parts = append(parts, fmt.Sprint(r.Name, r.Count, r.Failures))
			}
			return strings.Join(parts, ","), err
		}},
	}
	results := make([][]string, len(serverKinds))
	for k, kind := range serverKinds {
		_, dial := startServer(t, kind.cfg)
		c := newClient(t, dial)
		for _, v := range verbs {
			out, err := v.run(c)
			results[k] = append(results[k], fmt.Sprintf("%s: %s err=%v", v.name, out, err))
		}
	}
	for i, v := range verbs {
		if results[0][i] != results[1][i] {
			t.Errorf("%s differs:\n  mux:      %s\n  lockstep: %s", v.name, results[0][i], results[1][i])
		}
	}
}

// TestAsyncDialsBoundedByPool: sequential async calls all ride the
// client's one connection — the dialer fires only for NewClient.
func TestAsyncDialsBoundedByPool(t *testing.T) {
	forEachKind(t, func(t *testing.T, cfg server.Config) {
		_, dials, _, dial, _ := startConnServer(t, cfg)
		c := newClient(t, dial)
		for i := 0; i < 16; i++ {
			asyncPing(t, c)
		}
		if got := dials.Load(); got != 1 {
			t.Errorf("16 sequential async calls used %d dials, want 1", got)
		}
	})
}

func TestSubmitFetchReusePool(t *testing.T) {
	forEachKind(t, func(t *testing.T, cfg server.Config) {
		_, dials, _, dial, _ := startConnServer(t, cfg)
		c := newClient(t, dial)
		for i := 0; i < 5; i++ {
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
				t.Fatalf("out = %v", out)
			}
		}
		if got := dials.Load(); got != 1 {
			t.Errorf("5 submit+fetch pairs used %d dials, want 1", got)
		}
	})
}

// TestPoolDiscardsConnOnWriteError: after a write error the broken
// connection is closed and redialed, never reused.
func TestPoolDiscardsConnOnWriteError(t *testing.T) {
	forEachKind(t, func(t *testing.T, cfg server.Config) {
		_, dials, failWrites, dial, lastConn := startConnServer(t, cfg)
		c := newClient(t, dial)

		asyncPing(t, c) // warm the interface cache and negotiate the conn
		broken := lastConn()
		if broken == nil || dials.Load() != 1 {
			t.Fatalf("expected one connection after warmup, dials = %d", dials.Load())
		}

		failWrites.Store(true)
		if _, err := c.CallAsync("echo", 1, []float64{1}, make([]float64, 1)).Wait(); err == nil {
			t.Fatal("call with broken transport unexpectedly succeeded")
		}
		failWrites.Store(false)

		if !broken.closed.Load() {
			t.Error("connection not closed after I/O error")
		}
		before := dials.Load()
		asyncPing(t, c)
		if got := dials.Load(); got != before+1 {
			t.Errorf("dials = %d, want %d (one fresh dial after the fault)", got, before+1)
		}
		if lastConn() == broken {
			t.Error("the broken connection was reused")
		}
	})
}

// TestPoolHealthCheckOnCheckout: a connection the server killed is
// replaced transparently — the next call retries on a fresh dial
// rather than failing on the stale stream.
func TestPoolHealthCheckOnCheckout(t *testing.T) {
	forEachKind(t, func(t *testing.T, cfg server.Config) {
		l, dials, _, dial, _ := startConnServer(t, cfg)
		c := newClient(t, dial)

		asyncPing(t, c)
		if dials.Load() != 1 {
			t.Fatalf("dials after warmup = %d, want 1", dials.Load())
		}

		// Kill every connection from the server side; the client cannot
		// know until it looks.
		l.closeAccepted()
		time.Sleep(50 * time.Millisecond) // let the FIN reach the client

		asyncPing(t, c)
		if got := dials.Load(); got != 2 {
			t.Errorf("dials = %d, want 2 (dead conn replaced)", got)
		}
	})
}
