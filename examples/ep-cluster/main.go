// EP cluster: the §4.3/Figure 11 experiment on the real system. A
// metaserver monitors a cluster of in-process Ninf servers; the client
// wraps p EP range-calls in a Ninf transaction
// (Ninf_transaction_begin … Ninf_transaction_end). The calls have no
// data dependencies, so the transaction fans them out task-parallel
// across the cluster, and the merged result is bit-identical to the
// sequential kernel.
//
//	go run ./examples/ep-cluster [-servers 8] [-m 22]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"runtime"
	"time"

	"ninf"
	"ninf/internal/ep"
	"ninf/internal/library"
	"ninf/internal/metaserver"
	"ninf/internal/server"
)

func main() {
	nServers := flag.Int("servers", 8, "cluster size")
	m := flag.Int("m", 22, "log2 of EP trial pairs")
	flag.Parse()

	// Boot the cluster and register it with a metaserver.
	meta := metaserver.New(metaserver.Config{Policy: metaserver.RoundRobin{}})
	defer meta.Close()
	for i := 0; i < *nServers; i++ {
		reg, err := library.NewRegistry()
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(server.Config{Hostname: fmt.Sprintf("node%02d", i)}, reg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(l)
		defer srv.Close()
		addr := l.Addr().String()
		err = meta.AddServer(fmt.Sprintf("node%02d", i), addr, 100,
			func() (net.Conn, error) { return net.Dial("tcp", addr) })
		if err != nil {
			log.Fatal(err)
		}
	}
	meta.PollOnce()
	fmt.Printf("cluster of %d Ninf servers up (all in-process on %d host core(s)); EP with 2^%d pairs\n\n",
		*nServers, runtime.NumCPU(), *m)

	// Sequential baseline.
	start := time.Now()
	want, err := ep.Run(*m)
	if err != nil {
		log.Fatal(err)
	}
	seq := time.Since(start)

	// Task-parallel via a transaction, the paper's §4.3.1 pattern:
	//
	//	Ninf_transaction_begin();
	//	for (i = 1; i <= numprocs(); i++) Ninf_call("ep", ...);
	//	Ninf_transaction_end();
	for _, p := range []int{1, 2, 4, *nServers} {
		total := int64(1) << *m
		sx := make([]float64, p)
		sy := make([]float64, p)
		pairs := make([]int64, p)
		counts := make([][]int64, p)

		start := time.Now()
		tx := ninf.BeginTransaction(meta)
		for i := 0; i < p; i++ {
			counts[i] = make([]int64, 10)
			first := total * int64(i) / int64(p)
			last := total * int64(i+1) / int64(p)
			tx.Call("ep", *m, first, last-first, &sx[i], &sy[i], &pairs[i], counts[i])
		}
		if err := tx.End(); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		var merged ep.Result
		for i := 0; i < p; i++ {
			part := ep.Result{SumX: sx[i], SumY: sy[i], Pairs: pairs[i]}
			for j, v := range counts[i] {
				part.Counts[j] = v
			}
			merged.Merge(part)
		}
		if merged.Pairs != want.Pairs || merged.Counts != want.Counts {
			log.Fatalf("p=%d: merged result differs from sequential kernel", p)
		}
		fmt.Printf("p=%2d: %8v  speedup %.2f×  (exact merge: %d pairs, counts ok)\n",
			p, elapsed.Round(time.Millisecond), seq.Seconds()/elapsed.Seconds(), merged.Pairs)
	}
	fmt.Printf("\nsequential kernel: %v\n", seq.Round(time.Millisecond))
	fmt.Printf("(speedup is bounded by the %d real core(s) of this host, since every \"node\"\n", runtime.NumCPU())
	fmt.Println(" shares them; the correctness point — exact task-parallel decomposition with")
	fmt.Println(" fault-tolerant scheduling — holds regardless. The Figure 11 speedup shape,")
	fmt.Println(" including its metaserver dispatch overhead, is reproduced by the")
	fmt.Println(" fig11-ep-metaserver experiment in cmd/ninfbench.)")
}
