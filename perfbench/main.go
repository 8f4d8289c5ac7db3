// Command perfbench is the repository benchmark: it brings up a Ninf
// deployment inside its own process, drives it through the public
// client APIs as a closed loop of blocking callers, checks every
// result, and prints the metrics named in BENCHMARK.json.
//
//	perfbench --workload lan-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs half the time untraced and half traced and prints the per-layer
// metrics, the tracing overhead, and writes the spans under --out.
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Callers    int     `json:"callers"`
	LinkRate   float64 `json:"link_bytes_per_s,omitempty"`
	LinkOneWay float64 `json:"link_one_way_ms,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: lan-small, lan-bulk, wan-solver or submit-journal")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is built from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run printing per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, results and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func measure(w *workload, o options, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	prov := provenance{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Callers: w.callers,
	}
	if w.name == "wan-solver" {
		prov.LinkRate, prov.LinkOneWay = wanRate, float64(wanLatency)/1e6
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	in := w.inputs(rand.New(rand.NewSource(o.seed)))
	e := &env{nproc: runtime.NumCPU(), workDir: work}
	var res *result
	if o.trace {
		res, err = traced(w, e, in, o, prov, stdout)
	} else {
		res, err = untraced(w, e, in, o, stdout)
	}
	if err != nil {
		return nil, err
	}
	b, _ := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Result     *result    `json:"result"`
	}{prov, res}, "", "  ")
	name := fmt.Sprintf("result-%s-seed%d-trace%t.json", w.name, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(o.out, name), b, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// Setup is repeated so setup_s is a median: at least minSetups times,
// and on until a second of setups has been timed.
const minSetups = 3

// untraced brings the deployment up repeatedly (keeping the last) and
// measures the end-to-end metrics on it.
func untraced(w *workload, e *env, in any, o options, stdout io.Writer) (*result, error) {
	var setups []float64
	var spent time.Duration
	var dep deployment
	for len(setups) < minSetups || spent < time.Second {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		t := time.Now()
		d, err := w.up(e, in)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		el := time.Since(t)
		spent += el
		setups = append(setups, el.Seconds())
		dep = d
	}
	p := runPhase(dep, e, w, in, seconds(o.seconds), false)
	dep.close()

	_, attempted, failed, _, _ := p.totals()
	wops, wpayload := p.windowRates()
	p50, _, _, _ := p.latency(0.50)
	tail, samples, beyond, windowed := p.latency(w.tail)
	m := map[string]metric{
		"ops_per_s":       {median(wops), "1/s"},
		"payload_mb_s":    {median(wpayload) / 1e6, "MB/s"},
		"latency_p50_ms":  {ms(p50), "ms"},
		"latency_tail_ms": {ms(tail), "ms"},
		"setup_s":         {median(setups), "s"},
		"peak_rss_mb":     {p.rss, "MB"},
	}
	errRate := float64(failed) / float64(max(attempted, 1))
	printMetrics(stdout, m)
	fmt.Fprintf(stdout, "%-28s %12.6g %s (%d of %d operations failed)\n", "error_rate", errRate, "ratio", failed, attempted)
	how := "the run's"
	if windowed {
		how = fmt.Sprintf("the median of %d windows', the sparsest with", len(wops))
	}
	fmt.Fprintf(stdout, "latency_tail_ms is %s p%g: %d samples, %d beyond it; setup_s is the median of %d setups\n",
		how, 100*w.tail, samples, beyond, len(setups))
	fmt.Fprintf(stdout, "ops_per_s by %v window: %.4g\n", p.win, wops)
	if n := p.done.Load(); n < w.rssOps {
		fmt.Fprintf(stdout, "peak_rss_mb read at the end of the run, after %d of the %d ops it is read at\n", n, w.rssOps)
	}
	fmt.Fprintf(stdout, "waited %.3g s for a quiet host before timing\n", p.quietWait.Seconds())
	if n := len(p.steal) - 1; len(p.kept()) < n {
		fmt.Fprintf(stdout, "kept %d of %d windows; the rest lost more than %g%% of the machine's CPU time to other tenants (host steal)\n",
			len(p.kept()), n, 100*stealLimit)
	}
	if err := p.firstErr(); err != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", err)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traced measures half the time on a plain deployment and half on one
// whose dialers and scheduler are wrapped and whose calls are spanned.
func traced(w *workload, e *env, in any, o options, prov provenance, stdout io.Writer) (*result, error) {
	half := seconds(o.seconds / 2)
	plain, err := w.up(e, in)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	pu := runPhase(plain, e, w, in, half, false)
	plain.close()

	e.wire = &wireCounters{}
	e.places = &placeTimer{spans: make([][2]time.Time, 0, 4*wanSteps)}
	e.attach = 0
	runtime.GC()
	dep, err := w.up(e, in)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	pt := runPhase(dep, e, w, in, half, true)
	var tx txCounters
	if wd, ok := dep.(*wan); ok {
		tx = txCounters{wd.failover, wd.steps, wd.affine, wd.uploads}
	}
	dep.close()

	var kernel float64
	if wi, ok := in.(*wanSet); ok {
		if kernel, err = kernelMS(wi); err != nil {
			return nil, fmt.Errorf("direct kernel: %w", err)
		}
	}
	m := layerMetrics(e, pu, pt, tx, kernel)
	printMetrics(stdout, m)

	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := writeSpans(path, prov, callerTraces(pt)); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)

	_, au, fu, _, _ := pu.totals()
	_, at, ft, _, _ := pt.totals()
	for _, p := range []*phase{pu, pt} {
		if err := p.firstErr(); err != nil {
			fmt.Fprintf(stdout, "first failure: %v\n", err)
		}
	}
	return &result{Correct: fu+ft == 0, Attempted: au + at, Failed: fu + ft, Metrics: m}, nil
}

type txCounters struct{ failovers, steps, affine, uploads int64 }

// layerMetrics derives the per-layer metrics: trace, wire and server
// counters from the traced phase, runtime and process counters from the
// untraced one so they count only Ninf's own work.
func layerMetrics(e *env, pu, pt *phase, tx txCounters, kernel float64) map[string]metric {
	ops, _, _, calls, payload := pt.totals()
	perOp := func(x float64) float64 { return x / float64(max(ops, 1)) }
	tt := mergeTraces(callerTraces(pt))
	spanMS := func(n spanName) float64 { return perOp(ms(tt.sum[n])) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l0, l1 := pt.layers0, pt.layers1
	hits, misses := float64(l1.hits-l0.hits), float64(tx.uploads)

	m := map[string]metric{
		"ninf.pre_ms":              {spanMS(stagePre), "ms"},
		"ninf.post_ms":             {spanMS(stagePost), "ms"},
		"ninf.attempts_per_op":     {perOp(float64(pt.attempts)), "count"},
		"ninf.submit_ms":           {spanMS(spanSubmit), "ms"},
		"ninf.fetch_ms":            {spanMS(spanFetch), "ms"},
		"ninf.tx_failovers_per_op": {perOp(float64(tx.failovers)), "count"},
		"wire.bytes_per_op":        {perOp(float64(pt.wire.bytes)), "B"},
		"wire.overhead_ratio":      {ratio(float64(pt.wire.bytes), float64(payload)), "ratio"},
		"wire.writes_per_op":       {perOp(float64(pt.wire.writes)), "count"},
		"wire.dials_per_op":        {perOp(float64(pt.wire.dials)), "count"},
		"wire.reads_per_op":        {perOp(float64(pt.wire.reads)), "count"},
		"wire.blocked_ms_per_op":   {perOp(ms(pt.wire.blocked)), "ms"},
		"stage.request_ms":         {spanMS(stageRequest), "ms"},
		"stage.reply_ms":           {spanMS(stageReply), "ms"},
		"server.queue_ms":          {spanMS(stageQueue), "ms"},
		"server.compute_ms":        {spanMS(stageCompute), "ms"},
		"server.rejected_per_op":   {perOp(float64(l1.rejected - l0.rejected)), "count"},
		"cache.hits_per_op":        {perOp(hits), "count"},
		"cache.misses_per_op":      {perOp(misses), "count"},
		"cache.evictions":          {float64(l1.evictions - l0.evictions), "count"},
		"cache.hit_ratio":          {ratio(hits, hits+misses), "ratio"},
		"journal.bytes_per_op":     {perOp(float64(l1.walBytes - l0.walBytes)), "B"},
		"journal.attach_ms":        {ms(e.attach), "ms"},
		"self.bench_ms":            {perOp(ms(tt.self[spanOp])), "ms"},
		"self.ninf_ms":             {perOp(ms(tt.self[spanCall] + tt.self[spanSubmit] + tt.self[spanFetch] + tt.self[spanTx])), "ms"},
		"self.metaserver_ms":       {perOp(ms(tt.self[spanPlace])), "ms"},
		"trace.untraced_ops_per_s": {pu.opsPerSec(), "1/s"},
		"trace.traced_ops_per_s":   {pt.opsPerSec(), "1/s"},
		"trace.overhead_ratio":     {ratio(pu.opsPerSec(), pt.opsPerSec()), "ratio"},
	}

	// Linpack and the library handler: only wan-solver computes.
	var handler float64
	if kernel > 0 {
		handler = ratio(ms(tt.sum[stageCompute]), float64(calls)) - kernel
	}
	m["linpack.kernel_ms"] = metric{kernel, "ms"}
	m["library.handler_overhead_ms"] = metric{handler, "ms"}

	// Metaserver and emulated link: only wan-solver has them.
	var placeUS, places, share, util float64
	if n, total := e.places.totals(); n > 0 {
		placeUS = float64(total) / float64(n) / 1e3
		places = perOp(float64(n))
		var sum, top int64
		for i := range l1.calls {
			d := l1.calls[i] - l0.calls[i]
			sum += d
			top = max(top, d)
		}
		share = ratio(float64(top), float64(sum))
		util = float64(pt.wire.bytes) / (wanRate * pt.elapsed.Seconds())
	}
	m["metaserver.place_us"] = metric{placeUS, "us"}
	m["metaserver.places_per_op"] = metric{places, "count"}
	m["metaserver.affinity_ratio"] = metric{ratio(float64(tx.affine), float64(tx.steps)), "ratio"}
	m["metaserver.max_server_share"] = metric{share, "ratio"}
	m["emunet.link_util"] = metric{util, "ratio"}

	// Runtime and process counters of the untraced phase.
	uops, _, _, _, upayload := pu.totals()
	perU := func(x float64) float64 { return x / float64(max(uops, 1)) }
	allocBytes := float64(pu.mem1.TotalAlloc - pu.mem0.TotalAlloc)
	m["runtime.allocs_per_op"] = metric{perU(float64(pu.mem1.Mallocs - pu.mem0.Mallocs)), "count"}
	m["runtime.alloc_bytes_per_op"] = metric{perU(allocBytes), "B"}
	m["runtime.alloc_payload_ratio"] = metric{ratio(allocBytes, float64(upayload)), "ratio"}
	m["runtime.gc_per_kop"] = metric{perU(1000 * float64(pu.mem1.NumGC-pu.mem0.NumGC)), "count"}
	m["process.cpu_ms_per_op"] = metric{perU(ms(pu.cpu)), "ms"}
	m["process.cpu_util"] = metric{pu.cpu.Seconds() / (pu.elapsed.Seconds() * float64(e.nproc)), "ratio"}
	return m
}

func callerTraces(p *phase) []*callerTrace {
	var ts []*callerTrace
	for _, c := range p.callers {
		ts = append(ts, c.tr)
	}
	return ts
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %12.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
