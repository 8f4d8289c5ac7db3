package main

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// caller is one closed-loop client: it sends its next operation only
// after the previous one returned.
type caller struct {
	id      int
	ops     int // operations started
	failed  int
	calls   int64 // Ninf calls inside verified operations
	payload int64 // IDL bytes of verified operations
	lat     []time.Duration
	latWin  []uint8           // window each latency sample completed in
	outs    map[int][]float64 // output buffer per operand length
	tr      *callerTrace      // nil when untraced
	err     error             // first failure
	// Verified ops and payload bytes credited to each window of the
	// phase, in proportion to how much of each op's time fell in it.
	winOps, winPayload []float64
}

// latCap presizes each caller's latency log so the timed loop does not
// grow it; a faster system than this only costs a few appends.
const latCap = 1 << 20

func newCaller(id int, pool [][]float64, capacity int) *caller {
	c := &caller{
		id: id, outs: map[int][]float64{},
		lat: make([]time.Duration, 0, capacity), latWin: make([]uint8, 0, capacity),
	}
	for _, v := range pool {
		if c.outs[len(v)] == nil {
			c.outs[len(v)] = make([]float64, len(v))
		}
	}
	return c
}

// credit spreads one verified op that ran from..to, and its payload,
// over the windows it overlapped.
func (c *caller) credit(from, to, win time.Duration, payload float64) {
	span := max(to-from, 1)
	for k := int(from / win); k < len(c.winOps) && time.Duration(k)*win < to; k++ {
		lo, hi := max(from, time.Duration(k)*win), min(to, time.Duration(k+1)*win)
		f := float64(hi-lo) / float64(span)
		c.winOps[k] += f
		c.winPayload[k] += f * payload
	}
}

// phase is one timed closed-loop run over a deployment.
type phase struct {
	elapsed time.Duration
	win     time.Duration
	steal   []stealMark // at each window boundary
	// quietWait is how long the phase waited for the host to calm down.
	quietWait time.Duration
	callers   []*caller
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	cpu       time.Duration
	layers0   layerCounters
	layers1   layerCounters
	wire      wireSnapshot
	attempts  int64
	// rss is the process's peak resident set once the workload's rssOps
	// verified operations completed, or at the end if fewer did.
	rss  float64
	done atomic.Int64 // verified operations so far
}

type stealMark struct {
	steal, total int64
	ok           bool
}

// pool returns the operand pool a workload's inputs carry, for sizing
// the callers' output buffers.
func pool(in any) [][]float64 {
	if v, ok := in.(*vectors); ok {
		return v.pool
	}
	return nil
}

func runPhase(dep deployment, e *env, w *workload, in any, d time.Duration, traced bool) *phase {
	p := &phase{quietWait: awaitQuiet()}
	epoch := time.Now()
	for i := 0; i < w.callers; i++ {
		c := newCaller(i, pool(in), latCap)
		if traced {
			c.tr = newCallerTrace(epoch, i)
		}
		p.callers = append(p.callers, c)
	}
	att, _ := dep.(interface{ attempts() int64 })
	if att != nil {
		p.attempts = -att.attempts()
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	cpu0 := cpuTime()
	p.layers0 = dep.layers()
	wire0 := e.wire.snapshot()

	ctx := context.Background()
	nwin := 1
	if w.window > 0 {
		nwin = min(max(int(d/w.window), 1), math.MaxUint8)
	}
	winLen := d / time.Duration(nwin)
	for _, c := range p.callers {
		c.winOps, c.winPayload = make([]float64, nwin), make([]float64, nwin)
	}
	p.steal = make([]stealMark, nwin+1)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Marks the host's steal counter at every window boundary.
		defer wg.Done()
		for k := 0; k <= nwin; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * winLen)))
			p.steal[k].steal, p.steal[k].total, p.steal[k].ok = hostSteal()
		}
	}()
	for _, c := range p.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				paid, from := c.payload, time.Since(start)
				el, err := dep.op(ctx, c)
				c.ops++
				to := time.Since(start)
				if err == nil {
					c.credit(from, to, winLen, float64(c.payload-paid))
					if p.done.Add(1) == w.rssOps {
						p.rss = peakRSSMB()
					}
				}
				k := int(to / winLen)
				if err != nil {
					c.failed++
					if c.err == nil {
						c.err = err
					}
					// A failed operation misses every latency limit.
					el = time.Duration(math.MaxInt64)
				}
				c.lat = append(c.lat, el)
				c.latWin = append(c.latWin, uint8(min(k, nwin-1)))
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	if p.rss == 0 {
		p.rss = peakRSSMB()
	}
	p.win = winLen

	p.wire = e.wire.snapshot().sub(wire0)
	p.layers1 = dep.layers()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.mem1)
	if att != nil {
		p.attempts += att.attempts()
	}
	return p
}

func (p *phase) totals() (ops, attempted, failed int, calls, payload int64) {
	for _, c := range p.callers {
		attempted += c.ops
		failed += c.failed
		calls += c.calls
		payload += c.payload
	}
	return attempted - failed, attempted, failed, calls, payload
}

// kept returns the windows the medians are taken over: those in which
// the host gave no more than stealLimit of its CPU time to other
// tenants, or every window when steal is not reported or fewer than a
// quarter of the windows are clean.
func (p *phase) kept() []int {
	n := len(p.steal) - 1
	var all, clean []int
	for k := 0; k < n; k++ {
		all = append(all, k)
		a, b := p.steal[k], p.steal[k+1]
		if !a.ok || !b.ok || b.total <= a.total ||
			float64(b.steal-a.steal) <= stealLimit*float64(b.total-a.total) {
			clean = append(clean, k)
		}
	}
	if len(clean) < max(1, n/4) {
		return all
	}
	return clean
}

// windowRates returns the verified ops and payload bytes per second of
// each kept window. A single window spans the whole phase, up to the
// last operation's completion.
func (p *phase) windowRates() (ops, payload []float64) {
	if len(p.steal) == 2 {
		o, _, _, _, b := p.totals()
		return []float64{float64(o) / p.elapsed.Seconds()}, []float64{float64(b) / p.elapsed.Seconds()}
	}
	secs := p.win.Seconds()
	for _, k := range p.kept() {
		var o, b float64
		for _, c := range p.callers {
			o += c.winOps[k]
			b += c.winPayload[k]
		}
		ops = append(ops, o/secs)
		payload = append(payload, b/secs)
	}
	return ops, payload
}

func (p *phase) firstErr() error {
	for _, c := range p.callers {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

func (p *phase) opsPerSec() float64 {
	ops, _, _, _, _ := p.totals()
	return float64(ops) / p.elapsed.Seconds()
}

// latency returns the q-quantile of the latencies of the operations
// that completed in kept windows. When every kept window holds at least
// ten samples beyond its own q-quantile, it is the median over those
// windows, so a burst of interference in a few windows does not move
// it; otherwise it is taken over all their samples. samples and beyond
// describe the pooled samples, or the sparsest window.
func (p *phase) latency(q float64) (v time.Duration, samples, beyond int, windowed bool) {
	kept := p.kept()
	byWin := make([][]time.Duration, len(p.steal)-1)
	for _, c := range p.callers {
		for i, k := range c.latWin {
			byWin[k] = append(byWin[k], c.lat[i])
		}
	}
	var all []time.Duration
	var per []float64
	minSamples, minBeyond := math.MaxInt, math.MaxInt
	for _, k := range kept {
		w := byWin[k]
		all = append(all, w...)
		slices.Sort(w)
		wv, wb := quantile(w, q)
		per = append(per, float64(wv))
		minSamples, minBeyond = min(minSamples, len(w)), min(minBeyond, wb)
	}
	if len(kept) > 1 && minBeyond >= 10 {
		return time.Duration(median(per)), minSamples, minBeyond, true
	}
	slices.Sort(all)
	v, beyond = quantile(all, q)
	return v, len(all), beyond, false
}

// quantile is the nearest-rank q-quantile of sorted samples, with the
// number of samples strictly beyond it.
func quantile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k], len(sorted) - 1 - k
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set. Client and servers
// share the process, so it covers both.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
