package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"ninf"
)

// spanName names a layer boundary the benchmark records.
type spanName uint8

const (
	spanOp spanName = iota
	spanCall
	spanSubmit
	spanFetch
	spanTx
	spanPlace
	// The six stages below are derived from a ninf.Report and tile one
	// call: client marshalling, request on the wire, server queue,
	// compute, reply on the wire, client decode and store.
	stagePre
	stageRequest
	stageQueue
	stageCompute
	stageReply
	stagePost
	numSpans
)

var spanNames = [numSpans]string{
	"op", "ninf.call", "ninf.submit", "ninf.fetch", "ninf.transaction", "metaserver.place",
	"stage.pre", "stage.request", "stage.queue", "stage.compute", "stage.reply", "stage.post",
}

// A span is one recorded interval. Spans of one operation share op;
// parent is the id of the enclosing span within that operation, 0 for
// the operation itself.
type span struct {
	op         uint64
	id, parent uint16
	name       spanName
	start, end int64 // nanoseconds since the trace epoch
}

// maxSpans bounds the spans one caller keeps for the spans file; the
// per-layer sums cover every operation regardless.
const maxSpans = 1 << 14

// callerTrace is one caller's span recorder. Only its caller writes
// it, so it takes no lock.
type callerTrace struct {
	epoch  time.Time
	caller uint64
	ops    uint64
	nextID uint16
	spans  []span

	sum  [numSpans]time.Duration
	self [numSpans]time.Duration

	cur     []span     // the current operation's spans
	scratch [][2]int64 // child intervals while computing self time
}

func newCallerTrace(epoch time.Time, caller int) *callerTrace {
	return &callerTrace{
		epoch: epoch, caller: uint64(caller), spans: make([]span, 0, maxSpans),
		cur: make([]span, 0, 64), scratch: make([][2]int64, 0, 64),
	}
}

// child records a span under the span with id parent and returns its
// own id; parent 0 makes it the operation's root.
func (t *callerTrace) child(parent uint16, name spanName, from, to time.Time) uint16 {
	t.nextID++
	t.sum[name] += to.Sub(from)
	s := span{
		op: t.caller<<48 | t.ops, id: t.nextID, parent: parent, name: name,
		start: int64(from.Sub(t.epoch)), end: int64(to.Sub(t.epoch)),
	}
	t.cur = append(t.cur, s)
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	}
	return t.nextID
}

// begin starts a new operation and records its root span.
func (t *callerTrace) begin(name spanName, from, to time.Time) uint16 {
	t.flush()
	t.ops++
	t.nextID = 0
	return t.child(0, name, from, to)
}

// flush adds the current operation's spans to the self times: a span's
// duration minus the part of its interval that its children cover.
// Children may overlap (a two-phase job's stages straddle its submit
// and fetch), so the covered part is the union of their intervals.
func (t *callerTrace) flush() {
	for _, s := range t.cur {
		iv := t.scratch[:0]
		for _, c := range t.cur {
			if c.parent == s.id && c.id != s.id {
				lo, hi := max(c.start, s.start), min(c.end, s.end)
				if hi > lo {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		t.self[s.name] += time.Duration(s.end - s.start - covered)
		t.scratch = iv
	}
	t.cur = t.cur[:0]
}

// stages records the six Report-derived stages of one call that ran
// from..to on the benchmark's clock. The server stamps Enqueue,
// Dequeue and Complete in this same process, so no stage subtracts
// across clocks.
func (t *callerTrace) stages(parent uint16, from, to time.Time, rep *ninf.Report) {
	bounds := [7]time.Time{from, rep.Submit, rep.Enqueue, rep.Dequeue, rep.Complete, rep.Received, to}
	for k := 0; k < 6; k++ {
		t.child(parent, stagePre+spanName(k), bounds[k], bounds[k+1])
	}
}

// traceTotals merges the callers' per-layer sums.
type traceTotals struct {
	sum, self [numSpans]time.Duration
}

func mergeTraces(ts []*callerTrace) traceTotals {
	var tt traceTotals
	for _, t := range ts {
		t.flush()
		for n := spanName(0); n < numSpans; n++ {
			tt.sum[n] += t.sum[n]
			tt.self[n] += t.self[n]
		}
	}
	return tt
}

// writeSpans writes the kept spans as JSON lines after a header line
// with the run's provenance.
func writeSpans(path string, prov provenance, ts []*callerTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(prov); err != nil {
		f.Close()
		return err
	}
	type row struct {
		Op     uint64 `json:"op"`
		ID     uint16 `json:"id"`
		Parent uint16 `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(row{s.op, s.id, s.parent, spanNames[s.name], s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireCounters counts what crosses the sockets of every connection the
// benchmark dials, as the client sees them.
type wireCounters struct {
	bytes   atomic.Int64
	reads   atomic.Int64
	writes  atomic.Int64
	blocked atomic.Int64 // nanoseconds spent inside Write
	dials   atomic.Int64
}

type wireSnapshot struct {
	bytes, reads, writes, dials int64
	blocked                     time.Duration
}

func (w *wireCounters) snapshot() wireSnapshot {
	if w == nil {
		return wireSnapshot{}
	}
	return wireSnapshot{
		bytes: w.bytes.Load(), reads: w.reads.Load(), writes: w.writes.Load(),
		dials: w.dials.Load(), blocked: time.Duration(w.blocked.Load()),
	}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.bytes - b.bytes, a.reads - b.reads, a.writes - b.writes, a.dials - b.dials, a.blocked - b.blocked}
}

func (w *wireCounters) wrap(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		w.dials.Add(1)
		cc := &countConn{Conn: c, w: w}
		// The client probes idle pooled TCP conns through syscall.Conn;
		// keep that path reachable so tracing does not change behaviour.
		if sc, ok := c.(syscall.Conn); ok {
			return &countSysConn{cc, sc}, nil
		}
		return cc, nil
	}
}

type countConn struct {
	net.Conn
	w *wireCounters
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.reads.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.w.blocked.Add(int64(time.Since(t)))
	c.w.writes.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

type countSysConn struct {
	*countConn
	sc syscall.Conn
}

func (c *countSysConn) SyscallConn() (syscall.RawConn, error) { return c.sc.SyscallConn() }
