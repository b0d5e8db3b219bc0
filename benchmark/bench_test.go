package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"crystalchoice/internal/core"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	ties := []float64{1, 2, 2, 2, 2, 2, 2, 2, 2, 9}
	for _, c := range []struct{ p, want float64 }{{10, 1}, {50, 2}, {90, 2}, {91, 9}, {100, 9}} {
		if got := percentile(ties, c.p); got != c.want {
			t.Errorf("ties p%v: got %v, want %v", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("1..100 p99: got %v, want 99 (nearest rank)", got)
	}
}

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{5, 50},     // no tail percentile has ten samples beyond it
		{40, 75},    // p75 leaves 10 beyond
		{100, 90},   // p99 leaves 1, p95 leaves 5, p90 leaves 10
		{200, 95},   // p99 leaves 2, p95 leaves 10
		{1000, 99},  // p99 leaves exactly 10
		{999, 95},   // p99 leaves 9: one short
		{10000, 99}, // plenty
	} {
		v, p := tailPercentile(mk(c.n), 10)
		if p != c.wantP {
			t.Errorf("n=%d: picked p%v, want p%v", c.n, p, c.wantP)
		}
		if p != 50 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, p, beyond(c.n, p))
		}
		if v == 0 {
			t.Errorf("n=%d: zero value", c.n)
		}
	}
	if v, p := tailPercentile(nil, 10); v != 0 || p != 50 {
		t.Errorf("empty: got %v p%v", v, p)
	}
}

func TestMedianOverReps(t *testing.T) {
	if got := medianOf(nil); got != 0 {
		t.Errorf("empty: got %v", got)
	}
	if got := medianOf([]float64{3}); got != 3 {
		t.Errorf("one: got %v", got)
	}
	if got := medianOf([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd: got %v", got)
	}
	if got := medianOf([]float64{9, 1, 5, 7}); got != 6 {
		t.Errorf("even: got %v, want the mean of the middle two", got)
	}
	reps := []*rep{{wallS: 3}, {wallS: 1}, {wallS: 2}}
	if got := over(reps, func(r *rep) float64 { return r.wallS }); got != 2 {
		t.Errorf("over reps: got %v, want 2", got)
	}
}

func TestHostMeterReading(t *testing.T) {
	h := newHostMeter()
	// Readings are medians, so one pass an interrupt landed in moves nothing.
	h.clockNs = []float64{2 * float64(clockNominal), 2 * float64(clockNominal), 90 * float64(clockNominal)}
	h.cache = []float64{3 * float64(cacheNominalWarm), 3 * float64(cacheNominalWarm), float64(cacheNominalWarm)}
	h.spent = time.Second
	r := h.reading()
	if slow := r.slowdown(cacheNominalWarm); slow != 6 || r.spent != time.Second {
		t.Errorf("reading: got slowdown %v over %v, want 6 (clock 2x times cache 3x) over 1s", slow, r.spent)
	}
	if len(h.clockNs) != 0 || len(h.cache) != 0 || h.spent != 0 {
		t.Errorf("reading did not start a new stretch: %d and %d samples, %v spent", len(h.clockNs), len(h.cache), h.spent)
	}
	h.bracket()
	r = h.reading()
	if len(h.clockNs) != 0 || r.slowdown(cacheNominalWarm) <= 0 || r.spent <= 0 {
		t.Errorf("bracket of real passes: %+v", r)
	}
}

func TestAgeSlopeWindows(t *testing.T) {
	// Ten samples: windows are the first and last two.
	xs := []float64{1, 3, 50, 50, 50, 50, 50, 50, 4, 8}
	if got := ageSlope(xs); got != 3 { // median(4,8)=6 over median(1,3)=2
		t.Errorf("got %v, want 3", got)
	}
	if got := ageSlope([]float64{2, 9, 9, 5}); got != 2.5 {
		t.Errorf("fewer than ten samples use the first and the last: got %v, want 2.5", got)
	}
	if got := ageSlope([]float64{1}); got != 0 {
		t.Errorf("one sample: got %v, want 0", got)
	}
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = 7
	}
	if got := ageSlope(flat); got != 1 {
		t.Errorf("flat: got %v, want 1", got)
	}
}

func TestClassify(t *testing.T) {
	var zero core.Stats
	with := func(f func(*core.Stats)) core.Stats { s := zero; f(&s); return s }
	for _, c := range []struct {
		name      string
		after     core.Stats
		epoch     uint64
		delivered string
		op        bool
		want      eventClass
	}{
		{name: "timer with a random choice", after: with(func(s *core.Stats) { s.Choices++ }), want: classPlain},
		{name: "steering check", after: with(func(s *core.Stats) { s.SteeringChecks++; s.LookaheadStates += 8 }), delivered: "px.accept", want: classDecision},
		{name: "exact cache hit", after: with(func(s *core.Stats) { s.Choices++; s.CacheHits++ }), want: classDecision},
		{name: "class hit after exact miss", after: with(func(s *core.Stats) { s.CacheMisses++; s.ClassCacheHits++ }), want: classDecision},
		{name: "inline prediction", after: with(func(s *core.Stats) { s.Predictions++ }), want: classDecision},
		{name: "checkpoint integrated", after: with(func(s *core.Stats) { s.Checkpoints++ }), delivered: "cb.ckpt.resp", want: classCheckpoint},
		{name: "checkpoint request served", after: zero, delivered: "cb.ckpt.req", want: classCheckpoint},
		{name: "plain delivery", after: zero, delivered: "px.learn", want: classPlain},
		{name: "op wins over its steering check", after: with(func(s *core.Stats) { s.SteeringChecks++ }), op: true, want: classOp},
		{name: "scripted fault", after: zero, epoch: 1, want: classFault},
	} {
		if got := classify(zero, c.after, 0, c.epoch, c.delivered, c.op); got != c.want {
			t.Errorf("%s: got class %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpansParentChildAndSelfTime(t *testing.T) {
	good := []span{
		{TraceID: 1, SpanID: 1, Parent: 0, Name: "probe", StartNs: 0, EndNs: 100},
		{TraceID: 1, SpanID: 2, Parent: 1, Name: "apps.clone", StartNs: 10, EndNs: 40},
		{TraceID: 1, SpanID: 3, Parent: 1, Name: "model.buildworld", StartNs: 40, EndNs: 90},
		{TraceID: 1, SpanID: 4, Parent: 3, Name: "apps.clone", StartNs: 50, EndNs: 70},
	}
	if err := checkSpans(good); err != nil {
		t.Fatalf("good spans rejected: %v", err)
	}
	self := selfTimes(good)
	want := map[int]int64{1: 20, 2: 30, 3: 30, 4: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times: got %v, want %v", self, want)
	}
	bad := map[string][]span{
		"missing parent":        {{TraceID: 1, SpanID: 1, Parent: 9, StartNs: 0, EndNs: 1}},
		"duplicate id":          {{TraceID: 1, SpanID: 1, EndNs: 1}, {TraceID: 1, SpanID: 1, EndNs: 1}},
		"child outside parent":  {{TraceID: 1, SpanID: 1, EndNs: 10}, {TraceID: 1, SpanID: 2, Parent: 1, StartNs: 5, EndNs: 11}},
		"parent in other trace": {{TraceID: 1, SpanID: 1, EndNs: 10}, {TraceID: 2, SpanID: 2, Parent: 1, StartNs: 1, EndNs: 2}},
		"ends before start":     {{TraceID: 1, SpanID: 1, StartNs: 5, EndNs: 4}},
	}
	for name, spans := range bad {
		if checkSpans(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	rec := newRecorder()
	root := rec.begin(1, 0, "probe")
	child := rec.begin(1, root, "apps.clone")
	rec.end(child)
	rec.end(root)
	if err := checkSpans(rec.spans); err != nil {
		t.Errorf("recorder produced bad spans: %v", err)
	}
}

// workloadJSON is one entry of BENCHMARK.json's workloads.
type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables of this package from drifting apart. Run it with
// UPDATE_BENCHMARK_JSON=1 to regenerate the file from the tables.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, w := range workloads() {
		want.Workloads = append(want.Workloads, workloadJSON{w.name, w.why})
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		enc, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var have benchmarkJSON
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package; regenerate it with UPDATE_BENCHMARK_JSON=1")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at about a twentieth of its
// size through the whole path: reps, the determinism check, a traced rep
// whose digest must equal the untraced one, and both metric sets.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	host := newHostMeter()
	var runners []struct {
		name string
		run  runner
	}
	for i := range liveSpecs {
		s := liveSpecs[i]
		inter := time.Duration(float64(time.Second) / s.rate)
		s.measured = max(s.measured/20/inter, 4) * inter
		runners = append(runners, struct {
			name string
			run  runner
		}{s.name, liveRunner(&s, new([]int64), host)})
	}
	for i := range offlineSpecs {
		s := offlineSpecs[i]
		s.maxStates /= 20
		s.seqStates /= 20
		s.explorations = 2
		runners = append(runners, struct {
			name string
			run  runner
		}{s.name, offlineRunner(&s, host)})
	}
	for _, w := range runners {
		for _, traced := range []bool{false, true} {
			reps, err := replay(w.run, 1, 0.001, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(reps) != minReps {
				t.Fatalf("%s: %d reps, want %d", w.name, len(reps), minReps)
			}
			out := make(map[string]metric)
			if traced {
				if err := perLayer(w.name, reps, out, dir); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if len(out) != len(perLayerDefs) {
					t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(out), len(perLayerDefs))
				}
				if _, err := os.Stat(filepath.Join(dir, "spans-"+w.name+".jsonl")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
				continue
			}
			endToEnd(reps, nil, out)
			for _, d := range endToEndDefs {
				m, ok := out[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: end-to-end metric %s missing or in unit %q", w.name, d.Name, m.Unit)
				}
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, d.Name, m.Value)
				}
			}
			for _, r := range reps {
				if r.exact.failed != 0 {
					t.Errorf("%s: %d of %d ops failed", w.name, r.exact.failed, r.exact.ops)
				}
			}
		}
	}
}
