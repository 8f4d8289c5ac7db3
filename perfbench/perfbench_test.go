package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ninf/internal/linpack"
)

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs one workload and returns its parsed result line.
func runBench(t *testing.T, workload string, secs float64, trace int) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{
		"--workload", workload, "--seed", "7", "--seconds", strconv.FormatFloat(secs, 'f', -1, 64),
		"--trace", strconv.Itoa(trace), "--out", t.TempDir(),
	}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace %d: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// checkNames asserts the result carries exactly the named metrics with
// their units.
func checkNames(t *testing.T, workload string, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(r.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := r.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: %s unit %q, want %q", workload, w.Name, m.Unit, w.Unit)
		}
	}
}

// Each layer counter must move on the workload that exercises its
// layer and read zero where the workload bypasses it.
var (
	always = []string{
		"ninf.pre_ms", "ninf.post_ms", "wire.bytes_per_op", "wire.overhead_ratio", "wire.writes_per_op",
		"wire.reads_per_op", "wire.blocked_ms_per_op", "stage.request_ms", "stage.reply_ms", "server.compute_ms",
		"runtime.allocs_per_op", "runtime.alloc_bytes_per_op", "runtime.alloc_payload_ratio",
		"process.cpu_ms_per_op", "process.cpu_util", "self.bench_ms", "trace.untraced_ops_per_s",
		"trace.traced_ops_per_s", "trace.overhead_ratio",
	}
	never = []string{"ninf.tx_failovers_per_op", "server.rejected_per_op"}

	wanOnly = []string{
		"linpack.kernel_ms", "cache.hits_per_op", "cache.misses_per_op", "cache.hit_ratio", "metaserver.place_us",
		"metaserver.places_per_op", "metaserver.affinity_ratio", "metaserver.max_server_share",
		"emunet.link_util", "self.metaserver_ms", "wire.dials_per_op",
	}
	journalOnly = []string{"journal.bytes_per_op", "journal.attach_ms", "ninf.submit_ms", "ninf.fetch_ms"}
	// ninf.attempts_per_op is read from the shared Client; a
	// transaction's clients are private to it.
	clientOnly = []string{"ninf.attempts_per_op"}
	// On lan-* the six stages tile each call span, leaving the ninf
	// client no time outside them.
	ninfSelf = []string{"self.ninf_ms"}

	layerPredictions = map[string]struct{ nonzero, zero []string }{
		"lan-small":      {concat(always, clientOnly), concat(never, wanOnly, journalOnly, ninfSelf, []string{"cache.evictions"})},
		"lan-bulk":       {concat(always, clientOnly), concat(never, wanOnly, journalOnly, ninfSelf, []string{"cache.evictions"})},
		"wan-solver":     {concat(always, wanOnly, ninfSelf), concat(never, journalOnly, clientOnly)},
		"submit-journal": {concat(always, clientOnly, journalOnly, ninfSelf), concat(never, wanOnly, []string{"cache.evictions"})},
	}
)

func concat(xs ...[]string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			secs := 1.0
			if w.name == "wan-solver" {
				secs = 3 // a transaction takes a quarter second
			}
			r := runBench(t, w.name, secs, 0)
			checkNames(t, w.name, r, spec.EndToEnd)
			for n, m := range r.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, m.Value)
				}
			}

			r = runBench(t, w.name, 2*secs, 1)
			checkNames(t, w.name, r, spec.PerLayer)
			pred := layerPredictions[w.name]
			for _, n := range pred.nonzero {
				if v := r.Metrics[n].Value; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.name, n, v)
				}
			}
			for _, n := range pred.zero {
				if v := r.Metrics[n].Value; v != 0 {
					t.Errorf("%s: %s = %v, want 0", w.name, n, v)
				}
			}
			m := func(n string) float64 { return r.Metrics[n].Value }
			if strings.HasPrefix(w.name, "lan-") {
				// Echo computes nothing: the server's compute stage is a
				// small share of the call.
				if c, total := m("server.compute_ms"), m("stage.request_ms")+m("stage.reply_ms"); c > total/4 {
					t.Errorf("%s: server.compute_ms %v is not small against request+reply %v", w.name, c, total)
				}
			}
			if w.name == "submit-journal" && m("ninf.attempts_per_op") < 2 {
				t.Errorf("submit-journal: %v attempts per op, want a submit and a fetch", m("ninf.attempts_per_op"))
			}
			if w.name == "wan-solver" && m("metaserver.places_per_op") < wanSteps {
				t.Errorf("wan-solver: %v placements per transaction, want at least %d", m("metaserver.places_per_op"), wanSteps)
			}
		})
	}
}

// Only fresh matrices evict, and only the second one placed on a
// server; a traced half of ten seconds places at least three, so by
// pigeonhole one server gets two.
func TestWANEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wan-solver for 20 seconds")
	}
	r := runBench(t, "wan-solver", 20, 1)
	if n := 10 * r.Metrics["trace.traced_ops_per_s"].Value; n < 3*wanFreshEach {
		t.Skipf("only %.0f transactions in the traced half (race detector?); eviction needs three fresh matrices", n)
	}
	if v := r.Metrics["cache.evictions"].Value; !(v > 0) {
		t.Errorf("cache.evictions = %v, want > 0 (%v transactions/s, max server share %v)", v,
			r.Metrics["trace.traced_ops_per_s"].Value, r.Metrics["metaserver.max_server_share"].Value)
	}
}

func TestChainResidualRejectsWrongResult(t *testing.T) {
	in := wanInputs(rand.New(rand.NewSource(1))).(*wanSet)
	w := &wan{b: make([]float64, wanN), chk: [2][]float64{make([]float64, wanN), make([]float64, wanN)}}
	a, b0 := in.hot[0], in.rhs[0]
	copy(w.b, b0)
	for k := 0; k < wanSteps; k++ {
		x, err := linpack.Solve(a, wanN, w.b)
		if err != nil {
			t.Fatal(err)
		}
		copy(w.b, x)
	}
	if r := w.chainResidual(a, b0); !(r <= 1) {
		t.Fatalf("correct chain: residual %v, want <= 1", r)
	}
	w.b[wanN/2] *= 1 + 1e-9
	if r := w.chainResidual(a, b0); !(r > wanResidual) {
		t.Fatalf("perturbed chain: residual %v, want > %d", r, wanResidual)
	}
}

func TestQuantile(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q            float64
		want, beyond int
	}{{0.5, 50, 50}, {0.75, 75, 25}, {0.99, 99, 1}} {
		got, beyond := quantile(s, c.q)
		if int(got) != c.want || beyond != c.beyond {
			t.Errorf("quantile(%v) = %v with %d beyond, want %d with %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	epoch := time.Now()
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr := newCallerTrace(epoch, 0)
	op := tr.begin(spanOp, at(0), at(100))
	tr.child(op, spanSubmit, at(0), at(30))
	tr.child(op, spanFetch, at(60), at(100))
	// Overlapping children: together they cover 0..100 except 40..50.
	tr.child(op, stageRequest, at(20), at(40))
	tr.child(op, stageReply, at(50), at(70))
	tt := mergeTraces([]*callerTrace{tr})
	if got := tt.self[spanOp]; got != 10*time.Millisecond {
		t.Errorf("op self time %v, want 10ms", got)
	}
	if got := tt.self[spanSubmit]; got != 30*time.Millisecond {
		t.Errorf("submit self time %v, want 30ms", got)
	}
}
