package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0.5, 30}, {0.9, 50}, {0.2, 10}, {0.21, 20}, {1, 50}, {0, 10},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 50 || s[4] != 30 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.7); got != 7 {
		t.Errorf("p70 of 1..10 = %v, want 7 (0.7*10 must not round up to rank 8)", got)
	}
	// 100 samples: p90 is the 90th smallest, ten samples beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got, want := quartileSpread([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestSpecGeneratorReplays(t *testing.T) {
	stream := func(w workload, seed uint64, client int) []byte {
		g := newSpecGen(w, runConfig{seed: seed, keyScale: 1}, client, timedSalt)
		var buf bytes.Buffer
		for i := 0; i < 200; i++ {
			spec, ok := g.next()
			if !ok {
				break
			}
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
		}
		return buf.Bytes()
	}
	for _, w := range workloads {
		if !w.serves() {
			continue
		}
		a, again, other := stream(w, 7, 0), stream(w, 7, 0), stream(w, 8, 0)
		if len(a) == 0 || !bytes.Equal(a, again) {
			t.Errorf("%s: equal seeds must replay byte-identical requests", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: different seeds must differ", w.name)
		}
		if bytes.Equal(a, stream(w, 7, 1)) {
			t.Errorf("%s: the two clients must not send the same stream", w.name)
		}
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", ID: 1, Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", ID: 2, Parent: 0, Start: ms(30), End: ms(60)},  // overlaps a: cover is 10..60
		{Name: "c", ID: 3, Parent: 0, Start: ms(90), End: ms(120)}, // clipped to the parent
		{Name: "a1", ID: 4, Parent: 1, Start: ms(15), End: ms(20)}, // grandchild: not root's
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: ms(40), 1: ms(25), 2: ms(30), 3: ms(30), 4: ms(5)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestSegmentSpread(t *testing.T) {
	flat := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5}
	if got := segmentSpreadPct(flat); got != 0 {
		t.Errorf("flat samples spread %v", got)
	}
	drift := []float64{10, 10, 10, 11, 11, 11, 12, 12, 12}
	if got, want := segmentSpreadPct(drift), 100*2.0/11; math.Abs(got-want) > 1e-9 {
		t.Errorf("drifting samples spread %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{
			{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		},
	})
	set := func(lat, latSpread, tput float64, failed int) *setFile {
		return &setFile{Workloads: map[string]*setWorkload{"w": {Attempted: 100, Failed: failed, Metrics: map[string]*setMetric{
			"lat":     {Unit: "ms", Median: lat, Spread: latSpread},
			"tput":    {Unit: "1/s", Median: tput},
			"setup_s": {Unit: "s", Median: 1, Spread: 0.9}, // never unresolved
		}}}}
	}
	base := write("a.json", set(10, 0.01, 100, 0))
	for _, c := range []struct {
		name  string
		b     *setFile
		worse bool
		want  string
	}{
		{"same", set(10.5, 0.01, 95, 0), false, ""},
		{"slower", set(11.5, 0.01, 100, 0), true, "worse"},
		{"less throughput", set(10, 0.01, 85, 0), true, "worse"},
		{"noisy", set(10, 0.2, 100, 0), false, "unresolved"},
		{"failures", set(10, 0.01, 100, 1), true, "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareSets(&out, spec, base, write("b.json", c.b))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
		if c.want == "" && (strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved")) {
			t.Errorf("%s: expected every row ok:\n%s", c.name, out.String())
		}
	}
	if _, err := compareSets(&bytes.Buffer{}, spec, base, write("t.json", &setFile{Traced: true})); err == nil {
		t.Error("a traced set must be refused")
	}
}

// TestSmokeEmitsExactlyTheDeclaredMetrics runs all six workloads at a
// fiftieth of their key counts, untraced and traced, and checks that each
// run is correct and emits exactly the metric names BENCHMARK.json lists.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	charset := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[bool]map[string]string{false: {}, true: {}} // traced -> name -> unit
	for _, m := range spec.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(w, runConfig{seed: 5, seconds: 0.4, traced: traced, setups: 1, reps: 2, keyScale: 0.02})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, out.Correct, out.Failed, out.Attempted)
			}
			for name, m := range out.Metrics {
				if !charset.MatchString(name) {
					t.Errorf("%s: metric name %q outside the contract's charset", w.name, name)
				}
				if unit, ok := declared[traced][name]; !ok {
					t.Errorf("%s traced=%v: emits undeclared metric %q", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
				}
			}
			for name := range declared[traced] {
				if _, ok := out.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %q not emitted", w.name, traced, name)
				}
			}
		}
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 1)
	child := tr.begin("rapidd.solve_http", root, 1)
	tr.end(child)
	tr.end(root)
	tr.begin("open", -1, 2) // never closed: not written
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["op"] != float64(1) {
			t.Errorf("bad event %+v", e)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 || nilTracer.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	nilTracer.end(-1)
}
