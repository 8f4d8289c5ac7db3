package ninf_test

// BenchmarkMuxVsLockstep: the paper's §4 multi-client question asked
// of our own data plane. The sweep drives 1/4/16/64 concurrent callers
// with 8B/64KiB/8MiB argument vectors over loopback TCP against one
// server, once over one shared multiplexed session and once against a
// DisableMux server with one lockstep Client (one connection) per
// caller — the paper's setup — and reports calls/s per cell. The
// multiclient-mux experiment (cmd/ninfbench) runs the same sweep
// outside the testing harness and records BENCH_multiclient.json.

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/library"
	"ninf/internal/server"
)

var muxSweep = struct {
	callers []int
	sizes   []struct {
		name  string
		elems int
	}
}{
	callers: []int{1, 4, 16, 64},
	sizes: []struct {
		name  string
		elems int
	}{
		{"8B", 1},
		{"64KiB", 8 << 10},
		{"8MiB", 1 << 20},
	},
}

func BenchmarkMuxVsLockstep(b *testing.B) {
	for _, mode := range []struct {
		name string
		mux  bool
	}{{"mux", true}, {"lockstep", false}} {
		for _, nc := range muxSweep.callers {
			for _, size := range muxSweep.sizes {
				if size.elems >= 1<<20 && nc > 16 {
					// 64 callers × 8 MiB would hold half a GiB of
					// argument vectors in flight; the interesting
					// large-transfer contention shows by 16.
					continue
				}
				if testing.Short() && (size.elems > 1 || nc > 16) {
					continue
				}
				name := mode.name + "/c" + itoa(nc) + "/" + size.name
				b.Run(name, func(b *testing.B) {
					benchMuxCell(b, mode.mux, nc, size.elems)
				})
			}
		}
	}
}

// benchMuxCell runs b.N echo calls spread over nc concurrent callers:
// all on one Client for mux, one Client per caller against a
// DisableMux server for lockstep, so lockstep loses on per-call
// overhead, not on callers queueing for one connection.
func benchMuxCell(b *testing.B, mux bool, nc, elems int) {
	reg, err := library.NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(server.Config{PEs: 4, DisableMux: !mux}, reg)
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	clients := make([]*ninf.Client, 1)
	if !mux {
		clients = make([]*ninf.Client, nc)
	}
	warm := make([]float64, elems)
	for i := range clients {
		c, err := ninf.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call("echo", elems, warm, make([]float64, elems)); err != nil {
			b.Fatal(err)
		}
		if c.Multiplexed() != mux {
			b.Fatalf("client multiplexed = %v, want %v", c.Multiplexed(), mux)
		}
		clients[i] = c
	}

	b.SetBytes(int64(2 * 8 * elems)) // echo moves the vector out and back
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < nc; w++ {
		calls := b.N / nc
		if w < b.N%nc {
			calls++
		}
		if calls == 0 {
			continue
		}
		wg.Add(1)
		go func(c *ninf.Client, calls int) {
			defer wg.Done()
			in := make([]float64, elems)
			out := make([]float64, elems)
			for i := 0; i < calls; i++ {
				if _, err := c.Call("echo", elems, in, out); err != nil {
					b.Error(err)
					return
				}
			}
		}(clients[w%len(clients)], calls)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkMuxMixed is the tentpole's acceptance cell: 8-byte calls
// measured while a concurrent 8 MiB transfer occupies the same
// multiplexed session, on an emulated shared 100 MB/s access link
// (the paper's LAN regime — over raw loopback the wire is never the
// bottleneck and the cell would measure scheduler noise instead).
// "chunked" streams the large call as bounded interleaved bulk frames
// (protocol feature level 3); "monolithic" disables chunking, so the
// 8 MiB call holds the link as one frame and every small call queues
// behind it. p99-ms is the small calls' tail latency; bulkMB/s is the
// concurrent large-transfer throughput on the shared link.
func BenchmarkMuxMixed(b *testing.B) {
	for _, mode := range []struct {
		name string
		thr  int
	}{{"chunked", 0}, {"monolithic", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			benchMuxMixedCell(b, mode.thr)
		})
	}
}

func benchMuxMixedCell(b *testing.B, threshold int) {
	reg, err := library.NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(server.Config{PEs: 4, BulkThreshold: threshold}, reg)
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	// One shared 100 MB/s access link, charged where the bytes enter
	// the wire: client writes upstream, server writes downstream. Both
	// endpoints pace to the link, as real NICs do — otherwise megabytes
	// of bulk chunks queue in kernel socket buffers ahead of the small
	// replies and the interleaving never reaches the wire.
	link := emunet.NewLink("lan", 100e6)
	opts := emunet.Options{Up: []*emunet.Link{link}}
	go s.Serve(&shapedListener{l, opts})
	addr := l.Addr().String()
	c, err := ninf.NewClient(emunet.Dialer(
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
		opts,
	))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.SetBulkThreshold(threshold)

	const bulkElems = 1 << 20 // 8 MiB per direction
	smallIn := []float64{42}
	smallOut := make([]float64, 1)
	if _, err := c.Call("echo", 1, smallIn, smallOut); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var bulkCalls atomic.Int64
	var bulkWG sync.WaitGroup
	bulkWG.Add(1)
	go func() {
		defer bulkWG.Done()
		in := make([]float64, bulkElems)
		out := make([]float64, bulkElems)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Call("echo", bulkElems, in, out); err != nil {
				b.Error(err)
				return
			}
			bulkCalls.Add(1)
		}
	}()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := c.Call("echo", 1, smallIn, smallOut); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	close(stop)
	bulkWG.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[min(len(lat)*99/100, len(lat)-1)]
	b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99-ms")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e6, "p50-ms")
	b.ReportMetric(float64(bulkCalls.Load())*2*8*bulkElems/1e6/elapsed.Seconds(), "bulkMB/s")
}

// shapedListener wraps accepted connections in emunet shaping, so the
// server side of a benchmark link paces its writes like a real NIC.
type shapedListener struct {
	net.Listener
	opts emunet.Options
}

func (sl *shapedListener) Accept() (net.Conn, error) {
	c, err := sl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return emunet.Wrap(c, sl.opts), nil
}
