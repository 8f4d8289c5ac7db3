package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/library"
	"ninf/internal/linpack"
	"ninf/internal/metaserver"
	"ninf/internal/server"
	"ninf/internal/server/journal"
)

// A workload is one Ninf deployment shape plus the seeded inputs driven
// through it by a closed loop of callers.
type workload struct {
	name    string
	callers int
	// tail is the latency percentile reported as latency_tail_ms. It
	// keeps at least ten samples beyond it in a 12-second run with margin
	// for a slower build (p75 at wan-solver's four transactions a
	// second), and stays off a mode boundary: submit-journal's p99 jumps
	// between fetch poll backoff steps and garbage collections of the
	// lingering results, so it reports p90.
	tail float64
	// window splits the measured time into equal windows of about this
	// length, whose median rates and percentiles are reported, so a
	// burst of interference in a few windows does not move the result.
	// Zero makes the whole phase one window: wan-solver completes only a
	// handful of transactions a second.
	window time.Duration
	// rssOps is the number of verified operations after which
	// peak_rss_mb is read, about half a 12-second run on the reference
	// machine. A fixed amount of work rather than a fixed time keeps the
	// metric apart from throughput: submit-journal's fetched results
	// linger in memory for longer than a run, so its peak grows with
	// every op done.
	rssOps int64
	// inputs builds every operand from the seed, once per run, so the
	// timed loop allocates nothing of its own.
	inputs func(rng *rand.Rand) any
	// up brings up one deployment over the inputs and warms it; its
	// duration is one setup_s sample.
	up func(e *env, in any) (deployment, error)
}

// A deployment is one running Ninf system under test.
type deployment interface {
	// op performs caller c's next operation and verifies its outputs.
	// elapsed covers the Ninf API calls only, not input staging or the
	// check; the traced op span covers all three.
	op(ctx context.Context, c *caller) (elapsed time.Duration, err error)
	// layers snapshots the servers' own counters.
	layers() layerCounters
	close()
}

// layerCounters are counters read from the servers and the journal
// directory; a phase reports their deltas.
type layerCounters struct {
	calls     []int64 // Stats().TotalCalls per server
	rejected  int64   // Overload() admission rejections and sheds
	hits      int64
	evictions int64
	walBytes  int64
}

// env is what a deployment is built against: the trace hooks (nil when
// untraced) and a scratch directory inside the checkout.
type env struct {
	nproc   int
	workDir string
	wire    *wireCounters // counts and times every dialed conn; nil untraced
	places  *placeTimer   // wraps the transaction scheduler; nil untraced
	// attach is the AttachJournal duration of the last journaled setup.
	attach time.Duration
}

var errMismatch = errors.New("result differs from the expected value")

// Deployment settings. Everything else keeps the shipped defaults.
const (
	wanRate      = 10e6 // bytes/s of the one link in front of both servers
	wanLatency   = 10 * time.Millisecond
	wanPower     = 100 // Mflops per server, the ninfmeta -power default
	wanN         = 300
	wanSteps     = 4
	wanHot       = 4
	wanFreshEach = 8 // one transaction in this many uses a fresh matrix
	// wanCache holds the hot set plus one fresh matrix, so each further
	// fresh matrix evicts the least recently used entry.
	wanCache = 4 << 20
	// wanResidual bounds linpack.Residual of the reconstructed chain. A
	// correct solve of these diagonally dominant matrices reads below 1;
	// a wrong operand reads around 1e12.
	wanResidual = 16
	journalN    = 512
)

var workloads = []*workload{
	{name: "lan-small", callers: 2, tail: 0.99, window: time.Second / 4, rssOps: 150000, inputs: smallInputs, up: upLAN},
	{name: "lan-bulk", callers: 2, tail: 0.99, window: time.Second / 4, rssOps: 1000, inputs: bulkInputs, up: upLAN},
	{name: "wan-solver", callers: 1, tail: 0.75, rssOps: 24, inputs: wanInputs, up: upWAN},
	{name: "submit-journal", callers: 2, tail: 0.90, window: time.Second / 4, rssOps: 40000, inputs: journalInputs, up: upJournal},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// vectors is a pool of echo operands, walked in a seeded order.
type vectors struct {
	pool  [][]float64
	order []int
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func smallInputs(rng *rand.Rand) any {
	in := &vectors{}
	for i := 0; i < 64; i++ {
		in.pool = append(in.pool, randVec(rng, 1))
	}
	in.order = rng.Perm(len(in.pool))
	return in
}

// bulkInputs mixes 64 KiB, 1 MiB and 8 MiB vectors in equal counts, on
// both sides of the 256 KiB chunking threshold. Fixed proportions in a
// seeded order keep the mix, and so the medians, the same across seeds.
func bulkInputs(rng *rand.Rand) any {
	in := &vectors{}
	for _, bytes := range []int{64 << 10, 1 << 20, 8 << 20} {
		for k := 0; k < 2; k++ {
			in.pool = append(in.pool, randVec(rng, bytes/8))
		}
	}
	for rep := 0; rep < 4; rep++ {
		in.order = append(in.order, rng.Perm(len(in.pool))...)
	}
	return in
}

func journalInputs(rng *rand.Rand) any {
	in := &vectors{}
	for i := 0; i < 64; i++ {
		in.pool = append(in.pool, randVec(rng, journalN))
	}
	in.order = rng.Perm(len(in.pool))
	return in
}

// next returns caller c's next operand; callers start at different
// offsets of the shared order.
func (v *vectors) next(c *caller) []float64 {
	k := (c.id*len(v.order)/2 + c.ops) % len(v.order)
	return v.pool[v.order[k]]
}

// outFor returns caller c's output buffer for an operand of n elements,
// with sentinels planted so a reply that was never stored cannot pass.
func outFor(c *caller, n int) []float64 {
	out := c.outs[n]
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	out[0], out[n/2], out[n-1] = sentinel, sentinel, sentinel
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// echoPayload is the IDL bytes of echo(n, data[n], copy[n]): the int
// argument, the input array and the returned array.
func echoPayload(n int) int64 { return int64(8 + 16*n) }

// daemon is one computational server on a loopback listener.
type daemon struct {
	srv  *server.Server
	addr string
	done chan struct{}
}

func startDaemon(cfg server.Config, e *env, journalDir string) (*daemon, error) {
	reg, err := library.NewRegistry()
	if err != nil {
		return nil, err
	}
	s := server.New(cfg, reg)
	if journalDir != "" {
		t := time.Now()
		if _, err := s.AttachJournal(journalDir, journal.Options{}); err != nil {
			s.Close()
			return nil, err
		}
		e.attach = time.Since(t)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	d := &daemon{srv: s, addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		s.Serve(l)
	}()
	return d, nil
}

func (d *daemon) close() {
	d.srv.Close()
	<-d.done
}

// dialer returns a loopback dialer, counted when the run is traced.
func (e *env) dialer(addr string, shape *emunet.Options) func() (net.Conn, error) {
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	if shape != nil {
		dial = emunet.Dialer(dial, *shape)
	}
	if e.wire != nil {
		dial = e.wire.wrap(dial)
	}
	return dial
}

func serverCounters(ds []*daemon, walDir string) layerCounters {
	var lc layerCounters
	for _, d := range ds {
		lc.calls = append(lc.calls, d.srv.Stats().TotalCalls)
		o := d.srv.Overload()
		lc.rejected += o.ShedExpired + o.RejectedDeadline + o.RejectedQueue + o.RejectedClient + o.RejectedDraining
		h, _, ev, _, _ := d.srv.CacheCounters()
		lc.hits += h
		lc.evictions += ev
	}
	if walDir != "" {
		if fi, err := os.Stat(filepath.Join(walDir, "wal.log")); err == nil {
			lc.walBytes = fi.Size()
		}
	}
	return lc
}

// lan is the lan-small and lan-bulk deployment: one server with a PE per
// processor, and one default Client (one mux session) shared by the
// callers.
type lan struct {
	in     *vectors
	d      *daemon
	client *ninf.Client
}

func upLAN(e *env, inputs any) (deployment, error) {
	l, err := newLAN(e, inputs.(*vectors), "")
	if err != nil {
		return nil, err
	}
	// Hello, interface fetch, and one call per operand.
	return warm(l, l.in.pool, len(l.in.pool))
}

func newLAN(e *env, in *vectors, journalDir string) (*lan, error) {
	d, err := startDaemon(server.Config{PEs: e.nproc}, e, journalDir)
	if err != nil {
		return nil, err
	}
	c, err := ninf.NewClient(e.dialer(d.addr, nil))
	if err != nil {
		d.close()
		return nil, err
	}
	return &lan{in: in, d: d, client: c}, nil
}

// warm runs n operations through a new deployment before it is timed.
func warm(d deployment, pool [][]float64, n int) (deployment, error) {
	w := newCaller(0, pool, 0)
	for ; w.ops < n; w.ops++ {
		if _, err := d.op(context.Background(), w); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, nil
}

func (l *lan) op(ctx context.Context, c *caller) (time.Duration, error) {
	tb := time.Now()
	in := l.in.next(c)
	out := outFor(c, len(in))
	t0 := time.Now()
	rep, err := l.client.CallContext(ctx, "echo", len(in), in, out)
	t1 := time.Now()
	if err != nil {
		return t1.Sub(t0), err
	}
	if !sameBits(in, out) {
		return t1.Sub(t0), errMismatch
	}
	if c.tr != nil {
		op := c.tr.begin(spanOp, tb, time.Now())
		call := c.tr.child(op, spanCall, t0, t1)
		c.tr.stages(call, t0, t1, rep)
	}
	c.payload += echoPayload(len(in))
	c.calls++
	return t1.Sub(t0), nil
}

func (l *lan) layers() layerCounters { return serverCounters([]*daemon{l.d}, "") }

func (l *lan) attempts() int64 { return l.client.Attempts() }

func (l *lan) close() {
	l.client.Close()
	l.d.close()
}

// journaled is the submit-journal deployment: the lan shape with a
// submit journal at the default fsync policy, driven two-phase.
type journaled struct {
	*lan
	dir string
}

func upJournal(e *env, inputs any) (deployment, error) {
	dir, err := os.MkdirTemp(e.workDir, "journal-")
	if err != nil {
		return nil, err
	}
	l, err := newLAN(e, inputs.(*vectors), dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return warm(&journaled{lan: l, dir: dir}, l.in.pool, 16)
}

func (j *journaled) op(ctx context.Context, c *caller) (time.Duration, error) {
	tb := time.Now()
	in := j.in.next(c)
	out := outFor(c, len(in))
	t0 := time.Now()
	job, err := j.client.SubmitContext(ctx, "echo", len(in), in, out)
	if err != nil {
		return time.Since(t0), err
	}
	t1 := time.Now()
	rep, err := job.FetchContext(ctx, true)
	t2 := time.Now()
	if err != nil {
		return t2.Sub(t0), err
	}
	if !sameBits(in, out) {
		return t2.Sub(t0), errMismatch
	}
	if c.tr != nil {
		op := c.tr.begin(spanOp, tb, time.Now())
		c.tr.child(op, spanSubmit, t0, t1)
		c.tr.child(op, spanFetch, t1, t2)
		c.tr.stages(op, t0, t2, rep)
	}
	c.payload += echoPayload(len(in))
	c.calls++
	return t2.Sub(t0), nil
}

func (j *journaled) layers() layerCounters { return serverCounters([]*daemon{j.d}, j.dir) }

func (j *journaled) close() {
	j.lan.close()
	os.RemoveAll(j.dir)
}

// wanSet holds the wan-solver operands. Matrices are diagonally
// dominant, so a four-step chain x_k = A⁻¹x_{k-1} stays well conditioned
// and can be checked against its starting vector.
type wanSet struct {
	hot   [][]float64
	fresh []float64 // base of the fresh matrices; a copy is perturbed per use
	rhs   [][]float64
	order []int // hot matrix per transaction
	phase int   // which transaction of every wanFreshEach is fresh
}

func wanMatrix(rng *rand.Rand) []float64 {
	a := make([]float64, wanN*wanN)
	for i := range a {
		a[i] = 2*rng.Float64() - 1
	}
	for i := 0; i < wanN; i++ {
		a[i*wanN+i] += wanN
	}
	return a
}

func wanInputs(rng *rand.Rand) any {
	in := &wanSet{fresh: wanMatrix(rng), phase: rng.Intn(wanFreshEach)}
	for i := 0; i < wanHot; i++ {
		in.hot = append(in.hot, wanMatrix(rng))
	}
	for i := 0; i < 16; i++ {
		in.rhs = append(in.rhs, randVec(rng, wanN))
	}
	for rep := 0; rep < 8; rep++ {
		in.order = append(in.order, rng.Perm(wanHot)...)
	}
	return in
}

// wan is the wan-solver deployment: two single-PE servers with the
// argument cache on, behind one shared emulated WAN link, placed by an
// in-process metaserver.
type wan struct {
	in     *wanSet
	ds     []*daemon
	meta   *metaserver.Metaserver
	sched  ninf.Scheduler
	places *placeTimer

	// Per-run scratch, touched only by the single caller.
	freshBuf []float64
	freshN   int
	b        []float64
	chk      [2][]float64
	failover int64
	steps    int64
	affine   int64
	uploads  int64 // steps that sent their matrix rather than its digest
}

func upWAN(e *env, inputs any) (deployment, error) {
	in := inputs.(*wanSet)
	link := emunet.NewLink("wan", wanRate)
	shape := &emunet.Options{Up: []*emunet.Link{link}, Down: []*emunet.Link{link}, Latency: wanLatency}
	w := &wan{
		in:       in,
		meta:     metaserver.New(metaserver.Config{}),
		freshBuf: make([]float64, wanN*wanN),
		b:        make([]float64, wanN),
		chk:      [2][]float64{make([]float64, wanN), make([]float64, wanN)},
	}
	for i := 0; i < 2; i++ {
		d, err := startDaemon(server.Config{PEs: 1, CacheBudget: wanCache, Hostname: fmt.Sprintf("s%d", i)}, e, "")
		if err != nil {
			w.close()
			return nil, err
		}
		w.ds = append(w.ds, d)
		if err := w.meta.AddServer(fmt.Sprintf("s%d", i), d.addr, wanPower, e.dialer(d.addr, shape)); err != nil {
			w.close()
			return nil, err
		}
	}
	if n := w.meta.PollOnce(); n != len(w.ds) {
		w.close()
		return nil, fmt.Errorf("metaserver reached %d of %d servers", n, len(w.ds))
	}
	w.sched = w.meta
	if e.places != nil {
		e.places.inner = w.meta
		w.places = e.places
		w.sched = e.places
	}
	// Warm-up: every hot matrix into both servers' caches.
	for _, d := range w.ds {
		c, err := ninf.NewClient(e.dialer(d.addr, shape))
		if err != nil {
			w.close()
			return nil, err
		}
		for _, a := range in.hot {
			copy(w.b, in.rhs[0])
			if _, err := c.Call("linsolve", wanN, a, w.b); err != nil {
				c.Close()
				w.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		c.Close()
	}
	return w, nil
}

func (w *wan) op(ctx context.Context, c *caller) (time.Duration, error) {
	tb := time.Now()
	in := w.in
	a := in.hot[in.order[c.ops%len(in.order)]]
	if c.ops%wanFreshEach == in.phase {
		// A matrix no server has seen: the base with one diagonal entry
		// moved by a per-use amount.
		copy(w.freshBuf, in.fresh)
		w.freshN++
		w.freshBuf[0] += float64(w.freshN) / 1024
		a = w.freshBuf
	}
	b0 := in.rhs[c.ops%len(in.rhs)]
	copy(w.b, b0)
	if w.places != nil {
		w.places.reset()
	}
	t0 := time.Now()
	tx := ninf.BeginTransaction(w.sched)
	for k := 0; k < wanSteps; k++ {
		tx.Call("linsolve", wanN, a, w.b)
	}
	err := tx.EndContext(ctx)
	t1 := time.Now()
	if err != nil {
		return t1.Sub(t0), err
	}
	w.failover += int64(tx.Failovers())
	servers := tx.Servers()
	for k := 1; k < len(servers); k++ {
		w.steps++
		if last(servers[k]) == last(servers[k-1]) {
			w.affine++
		}
	}
	// A step whose request carried the whole matrix missed the cache:
	// the server did not hold it, so the client uploaded it.
	reps := tx.Reports()
	for _, rep := range reps {
		if rep.BytesOut >= 8*wanN*wanN {
			w.uploads++
		}
	}
	if r := w.chainResidual(a, b0); !(r <= wanResidual) {
		return t1.Sub(t0), fmt.Errorf("%w: chain residual %.3g", errMismatch, r)
	}
	if c.tr != nil {
		op := c.tr.begin(spanOp, tb, time.Now())
		txs := c.tr.child(op, spanTx, t0, t1)
		if w.places != nil {
			for _, p := range w.places.pending() {
				c.tr.child(txs, spanPlace, p[0], p[1])
			}
		}
		for k, rep := range reps {
			from, to := rep.Submit, rep.Received
			if k == 0 {
				from = t0
			}
			if k == len(reps)-1 {
				to = t1
			}
			c.tr.stages(txs, from, to, rep)
		}
	}
	c.payload += wanSteps * int64(8+8*wanN*wanN+16*wanN)
	c.calls += wanSteps
	return t1.Sub(t0), nil
}

func last(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[len(s)-1]
}

// chainResidual walks the returned x₄ back through A three times to
// reconstruct x₁ and returns linpack.Residual of A·x₁ = b₀.
func (w *wan) chainResidual(a, b0 []float64) float64 {
	x := w.b
	for k := 0; k < wanSteps-1; k++ {
		y := w.chk[k%2]
		for i := 0; i < wanN; i++ {
			s := 0.0
			row := a[i*wanN : (i+1)*wanN]
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
		x = y
	}
	return linpack.Residual(a, wanN, x, b0)
}

func (w *wan) layers() layerCounters { return serverCounters(w.ds, "") }

func (w *wan) close() {
	for _, d := range w.ds {
		d.close()
	}
}

// kernelMS times Dgefa+Dgesl directly on a hot matrix of the same n,
// the median of five solves.
func kernelMS(in *wanSet) (float64, error) {
	a := make([]float64, wanN*wanN)
	b := make([]float64, wanN)
	ipvt := make([]int64, wanN)
	var ms []float64
	for k := 0; k < 5; k++ {
		copy(a, in.hot[k%len(in.hot)])
		copy(b, in.rhs[k])
		t := time.Now()
		if err := linpack.Dgefa(a, wanN, ipvt); err != nil {
			return 0, err
		}
		if err := linpack.Dgesl(a, wanN, ipvt, b); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms), nil
}

// placeTimer wraps the scheduler handed to BeginTransaction and times
// each Place.
type placeTimer struct {
	inner ninf.Scheduler

	mu    sync.Mutex
	spans [][2]time.Time // this transaction's placements
	n     int64
	total time.Duration
}

func (p *placeTimer) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	t0 := time.Now()
	pl, err := p.inner.Place(req)
	t1 := time.Now()
	p.mu.Lock()
	if len(p.spans) < cap(p.spans) {
		p.spans = append(p.spans, [2]time.Time{t0, t1})
	}
	p.n++
	p.total += t1.Sub(t0)
	p.mu.Unlock()
	return pl, err
}

func (p *placeTimer) Observe(server string, bytes int64, elapsed time.Duration, failed bool) {
	p.inner.Observe(server, bytes, elapsed, failed)
}

// ObserveErr forwards the metaserver's richer failure feedback, which
// transactions look for on the scheduler they were given.
func (p *placeTimer) ObserveErr(server string, bytes int64, elapsed time.Duration, err error) {
	if eo, ok := p.inner.(interface {
		ObserveErr(string, int64, time.Duration, error)
	}); ok {
		eo.ObserveErr(server, bytes, elapsed, err)
		return
	}
	p.inner.Observe(server, bytes, elapsed, true)
}

func (p *placeTimer) reset() {
	p.mu.Lock()
	p.spans = p.spans[:0]
	p.mu.Unlock()
}

func (p *placeTimer) pending() [][2]time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spans
}

func (p *placeTimer) totals() (int64, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n, p.total
}
