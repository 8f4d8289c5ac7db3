package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/protocol"
)

// TestStressMixedWorkload hammers one server with many concurrent
// connections mixing blocking calls, two-phase jobs, interface
// queries, stats probes and deliberate failures. Run with -race this
// is the package's main concurrency soak.
func TestStressMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	reg := NewRegistry()
	var executed atomic.Int64
	err := reg.RegisterIDL(`
Define work(mode_in int n, mode_in double v[n], mode_out double w[n]) Complexity n Calls "go" work(n, v, w);
Define fail(mode_in int n) Calls "go" fail(n);
`, map[string]Handler{
		"work": func(_ context.Context, args []idl.Value) error {
			executed.Add(1)
			v := args[1].([]float64)
			w := args[2].([]float64)
			for i := range v {
				w[i] = v[i] * 2
			}
			return nil
		},
		"fail": func(_ context.Context, _ []idl.Value) error {
			return fmt.Errorf("always fails")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PEs: 4}, reg)
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)

	const clients = 20
	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			workEx := reg.Lookup("work")
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0, 1: // blocking call
					n := 1 + (ci+i)%64
					v := make([]float64, n)
					for j := range v {
						v[j] = float64(j)
					}
					p, err := protocol.EncodeCallRequest(workEx.Info,
						&protocol.CallRequest{Name: "work", Args: []idl.Value{int64(n), v, nil}})
					if err != nil {
						errCh <- err
						return
					}
					typ, rp, err := callNB(conn, protocol.MsgCall, p)
					if err != nil || typ != protocol.MsgCallOK {
						errCh <- fmt.Errorf("call: %v %v", typ, err)
						return
					}
					_, out, err := decodeReply(workEx.Info,
						[]idl.Value{int64(n), v, nil}, rp, nil)
					if err != nil {
						errCh <- err
						return
					}
					w := out[2].([]float64)
					for j := range v {
						if w[j] != 2*v[j] {
							errCh <- fmt.Errorf("corrupted result")
							return
						}
					}
				case 2: // two-phase
					p, _ := protocol.EncodeCallRequest(workEx.Info,
						&protocol.CallRequest{Name: "work", Args: []idl.Value{int64(4), make([]float64, 4), nil}})
					typ, rp, err := callNB(conn, protocol.MsgSubmit, submitPayload(uint64(1+ci*iters+i), p))
					if err != nil || typ != protocol.MsgSubmitOK {
						errCh <- fmt.Errorf("submit: %v %v", typ, err)
						return
					}
					sr, _ := protocol.DecodeSubmitReply(rp)
					fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
					typ, _, err = callNB(conn, protocol.MsgFetch, fr.Encode())
					if err != nil || typ != protocol.MsgFetchOK {
						errCh <- fmt.Errorf("fetch: %v %v", typ, err)
						return
					}
				case 3: // error path
					failEx := reg.Lookup("fail")
					p, _ := protocol.EncodeCallRequest(failEx.Info,
						&protocol.CallRequest{Name: "fail", Args: []idl.Value{int64(1)}})
					typ, _, err := callNB(conn, protocol.MsgCall, p)
					if err != nil || typ != protocol.MsgError {
						errCh <- fmt.Errorf("fail call: %v %v", typ, err)
						return
					}
				case 4: // metadata
					if typ, _, err := callNB(conn, protocol.MsgStats, nil); err != nil || typ != protocol.MsgStatsOK {
						errCh <- fmt.Errorf("stats: %v %v", typ, err)
						return
					}
					if typ, _, err := callNB(conn, protocol.MsgTrace, nil); err != nil || typ != protocol.MsgTraceOK {
						errCh <- fmt.Errorf("trace: %v %v", typ, err)
						return
					}
				}
			}
			errCh <- nil
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := executed.Load(); got < clients*iters/2 {
		t.Errorf("only %d executions recorded", got)
	}
	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("leftover work after soak: %+v", st)
	}
}
