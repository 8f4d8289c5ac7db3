package ninf_test

// Closing a client with calls still on the wire must fail those calls
// promptly with a classified error — never hang them, never leak their
// goroutines (the package's testleak TestMain enforces the latter).

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/server"
)

// blackHoleListener accepts connections, swallows everything written
// to them, and never replies — a server that went catatonic
// mid-exchange. Each accept is signalled on the returned channel.
func blackHoleListener(t *testing.T) (net.Listener, <-chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan struct{}, 16)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(c)
		}
	}()
	return l, accepted
}

// swallowConn forwards traffic until its hole opens; from then on
// every write is silently discarded, so the server never answers and
// an exchange blocks in its read until the connection is closed.
type swallowConn struct {
	net.Conn
	hole      *atomic.Bool
	swallowed *atomic.Int32
}

func (c *swallowConn) Write(p []byte) (int, error) {
	if c.hole.Load() {
		c.swallowed.Add(1)
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func TestCloseWithInFlightCalls(t *testing.T) {
	// A lockstep server: the client's one connection carries one
	// exchange at a time, so when Close fires CallAsync is blocked in
	// its read and Submit waits its turn behind it. Both must fail as
	// client-closed.
	_, realDial := startServer(t, server.Config{Hostname: "closetest", DisableMux: true})
	var hole atomic.Bool
	var swallowed atomic.Int32
	dial := func() (net.Conn, error) {
		conn, err := realDial()
		if err != nil {
			return nil, err
		}
		return &swallowConn{Conn: conn, hole: &hole, swallowed: &swallowed}, nil
	}
	c, err := ninf.NewClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(ninf.NoRetry) // a retry would just re-enter the hole
	if _, err := c.Interface("dmmul"); err != nil {
		t.Fatal(err)
	}

	const n = 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	got := make([]float64, n*n)
	got2 := make([]float64, n*n)

	hole.Store(true)
	ac := c.CallAsync("dmmul", n, a, b, got)
	submitErr := make(chan error, 1)
	go func() {
		_, err := c.Submit("dmmul", n, a, b, got2)
		submitErr <- err
	}()

	// Wait until a request is on the (black-holed) wire — now pull the
	// rug.
	deadline := time.Now().Add(5 * time.Second)
	for swallowed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request ever reached the connection")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the exchange block in read
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	waitErr := make(chan error, 1)
	go func() {
		_, err := ac.Wait()
		waitErr <- err
	}()
	for name, ch := range map[string]chan error{"CallAsync": waitErr, "Submit": submitErr} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("%s succeeded against a black hole", name)
			} else if !errors.Is(err, ninf.ErrClientClosed) {
				t.Errorf("%s error not classified as client-closed: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung after Close instead of failing", name)
		}
	}

	// Calls issued after Close fail immediately with the same class.
	if _, err := c.Call("dmmul", n, a, b, got); !errors.Is(err, ninf.ErrClientClosed) {
		t.Errorf("Call after Close: %v", err)
	}
}

// TestCloseSeversMuxHandshake: a mux client whose session died re-dials
// on its next call, and the handshake blocks against a catatonic
// server; Close must sever the handshake (the connection is the
// client's from the moment it is dialed) and fail the call as
// client-closed.
func TestCloseSeversMuxHandshake(t *testing.T) {
	_, realDial := startServer(t, server.Config{Hostname: "closetest"})
	hole, accepted := blackHoleListener(t)

	// Dial #1 reaches the real server, so a first call warms the
	// interface cache and negotiates a session; the re-dial lands in
	// the black hole.
	var dials int32
	var first net.Conn
	dial := func() (net.Conn, error) {
		if atomic.AddInt32(&dials, 1) == 1 {
			conn, err := realDial()
			first = conn
			return conn, err
		}
		return net.Dial("tcp", hole.Addr().String())
	}
	c, err := ninf.NewClient(dial)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(ninf.NoRetry)
	callOnce(t, c)
	if !c.Multiplexed() {
		t.Fatal("no session after the first call")
	}
	first.Close() // break the session
	for c.Multiplexed() {
		time.Sleep(time.Millisecond)
	}

	const n = 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	got := make([]float64, n*n)
	ac := c.CallAsync("dmmul", n, a, b, got)

	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("session handshake never reached the black hole")
	}
	time.Sleep(20 * time.Millisecond) // let Negotiate block in read
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	waitErr := make(chan error, 1)
	go func() {
		_, err := ac.Wait()
		waitErr <- err
	}()
	select {
	case err := <-waitErr:
		if err == nil {
			t.Error("CallAsync succeeded against a black hole")
		} else if !errors.Is(err, ninf.ErrClientClosed) {
			t.Errorf("CallAsync error not classified as client-closed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CallAsync hung in the severed handshake after Close")
	}
}

// TestCloseDuringFirstInterfaceFetch: the first call on a client whose
// server never answers blocks in its first exchange, the interface
// fetch. Close must not wait for that exchange: it returns at once and
// the call fails as client-closed.
func TestCloseDuringFirstInterfaceFetch(t *testing.T) {
	hole, accepted := blackHoleListener(t)
	c, err := ninf.Dial("tcp", hole.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	callErr := make(chan error, 1)
	go func() {
		_, err := c.Call("echo", 1, []float64{1}, make([]float64, 1))
		callErr <- err
	}()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the client never reached the black hole")
	}
	time.Sleep(20 * time.Millisecond) // let the first exchange block in read

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked behind the first-call interface fetch")
	}
	select {
	case err := <-callErr:
		if !errors.Is(err, ninf.ErrClientClosed) {
			t.Errorf("call error = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after Close")
	}
}
