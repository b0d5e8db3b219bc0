package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/transport"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans of one probe share a trace_id; parent is the span_id of the span
// that caused this one, 0 for a probe's root. Times are nanoseconds since
// the rep's recorder was created.
type span struct {
	TraceID int    `json:"trace_id"`
	SpanID  int    `json:"span_id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps a rep's spans in memory; they are written out once, when
// the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its span_id.
func (r *recorder) begin(trace, parent int, name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{TraceID: trace, SpanID: id, Parent: parent, Name: name, StartNs: int64(time.Since(r.t0))})
	return id
}

// end closes the span and returns its duration in microseconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.EndNs = int64(time.Since(r.t0))
	return float64(s.EndNs-s.StartNs) / 1e3
}

// selfTimes returns, per span_id, the span's duration minus the part its
// direct children cover: the time spent in the layer itself.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.SpanID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// checkSpans verifies span integrity: ids are unique and positive, every
// parent exists in the same trace, and a child lies inside its parent.
func checkSpans(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.SpanID <= 0 {
			return fmt.Errorf("span %q has id %d", s.Name, s.SpanID)
		}
		if _, dup := byID[s.SpanID]; dup {
			return fmt.Errorf("span id %d used twice", s.SpanID)
		}
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", s.SpanID, s.Name)
		}
		byID[s.SpanID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.SpanID, s.Name, s.Parent)
		}
		if p.TraceID != s.TraceID {
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.SpanID, s.Name, s.TraceID, p.TraceID)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.SpanID, s.Name, p.SpanID, p.Name)
		}
	}
	return nil
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// eventClass says what a simulator event was, judged from outside by the
// public counters it moved.
type eventClass int

const (
	classPlain      eventClass = iota // no runtime decision, no checkpoint traffic
	classDecision                     // a steering check or a predictive choice resolution
	classCheckpoint                   // checkpoint request served or response integrated
	classOp                           // a client op entering the system (the op closure)
	classFault                        // a scripted topology event
	numClasses
)

// classify names an event from the counter deltas around its Step:
// cluster stats before and after, the topology epoch, the kind of the
// message the network delivered during it (empty if none), and whether
// the benchmark's op closure ran.
func classify(before, after core.Stats, epochBefore, epochAfter uint64, delivered string, op bool) eventClass {
	switch {
	case op:
		return classOp
	case epochAfter != epochBefore:
		return classFault
	case after.SteeringChecks != before.SteeringChecks,
		after.Predictions != before.Predictions,
		after.CacheHits != before.CacheHits, after.CacheMisses != before.CacheMisses,
		after.ClassCacheHits != before.ClassCacheHits, after.ClassCacheMisses != before.ClassCacheMisses:
		return classDecision
	case after.Checkpoints != before.Checkpoints, strings.HasPrefix(delivered, "cb.ckpt."):
		return classCheckpoint
	}
	return classPlain
}

// probeTarget is how many probes a traced rep aims for, and probeBudget
// the wall seconds it may spend in them: where state is large (the
// control's 40 000 commands) a probe costs a quarter of a second, and the
// rep thins its probes out rather than overrun.
const (
	probeTarget = 100
	probeBudget = 3.0
)

// liveTrace is the tracing state of one traced live rep: it classifies
// every measured event and, every K-th event, probes the layers from the
// outside between two steps.
type liveTrace struct {
	d     *deployment
	host  *hostMeter
	rec   *recorder
	rng   *rand.Rand // the probes' own randomness; the deployment's is never touched
	seed  int64
	every int

	opRan     bool
	delivered string
	injectUs  []float64

	classUs  [numClasses][]float64
	outsideS float64 // wall time of the measured phase spent outside Step
	probeS   float64 // of that, in probes

	probes     int
	byName     map[string][]float64 // span durations in microseconds, in probe order
	lookStates []float64            // states each probe's lookahead explored
	knownPeers []float64
}

// attach binds the trace to a prepared deployment.
func (t *liveTrace) attach(d *deployment, seed int64, every int, host *hostMeter) {
	t.d, t.host, t.rec, t.seed, t.every = d, host, newRecorder(), seed, every
	t.rng = rand.New(rand.NewSource(seed ^ 0x70726f6265))
	t.byName = make(map[string][]float64)
	t.injectUs = nil // the warmup's op closures ran through inject too
	d.net.Monitor = func(m *transport.Message) { t.delivered = m.Kind }
}

// inject runs an op closure under a stopwatch and marks the event as an op.
func (t *liveTrace) inject(fn func()) {
	t.opRan = true
	t0 := time.Now()
	fn()
	t.injectUs = append(t.injectUs, float64(time.Since(t0))/1e3)
}

// stepMeasured is the traced measured loop: a stopwatch around each Step
// alone, classification from counter deltas, a reference pass per
// refEvery of stepping, and a probe between steps every t.every events.
func (t *liveTrace) stepMeasured(end sim.Time, buf []int64) []int64 {
	loopStart := time.Now()
	expected := t.every * probeTarget
	var inStep, nextRef time.Duration
	before, epoch := t.d.cl.Stats(), t.d.cl.TopoEpoch()
	for {
		at, ok := t.d.eng.NextEventAt()
		if !ok || at > end {
			break
		}
		t.opRan, t.delivered = false, ""
		t0 := time.Now()
		t.d.eng.Step()
		el := time.Since(t0)
		inStep += el
		buf = append(buf, int64(el))
		after, epochAfter := t.d.cl.Stats(), t.d.cl.TopoEpoch()
		c := classify(before, after, epoch, epochAfter, t.delivered, t.opRan)
		t.classUs[c] = append(t.classUs[c], float64(el)/1e3)
		before, epoch = after, epochAfter
		if inStep >= nextRef {
			t.host.pass()
			nextRef = inStep + refEvery
		}
		if len(buf)%t.every == 0 {
			p0 := time.Now()
			t.probe()
			t.probeS += time.Since(p0).Seconds()
			// Ahead of the budget's pro-rata share: probe half as often.
			done := float64(len(buf)) / float64(expected)
			if t.probeS > probeBudget*done {
				t.every *= 2
			}
		}
	}
	t.outsideS = (time.Since(loopStart) - inStep).Seconds()
	return buf
}

// probe times, on a rotating live node, every public call one
// interposition decision is made of: service clone and digest, checkpoint
// snapshot, BuildWorld, the first (priming) World.Digest, a fork, a
// steering-sized lookahead of the workload's dominant event, the report's
// violation classes, a from-scratch digest, and MaterializeWorld. It only
// reads the deployment, so the rep's digest is the untraced one.
func (t *liveTrace) probe() {
	all := t.d.cl.Nodes()
	n := all[t.probes%len(all)]
	for i := 0; n.Down() && i < len(all); i++ {
		n = all[(t.probes+i+1)%len(all)]
	}
	if n.Down() {
		return
	}
	t.probes++
	id := t.probes
	root := t.rec.begin(id, 0, "probe")
	call := func(name string, fn func()) {
		s := t.rec.begin(id, root, name)
		fn()
		t.byName[name] = append(t.byName[name], t.rec.end(s))
	}
	now := time.Duration(t.d.eng.Now())
	var (
		svc  = n.Service()
		w    *explore.World
		repo *explore.Report
	)
	call("apps.digest", func() { svc.Digest() })
	call("apps.clone", func() { svc = svc.Clone() })
	call("checkpoint.snapshot", func() { n.Snapshot() })
	call("model.buildworld", func() {
		w = n.Model().BuildWorld(svc, now, explore.RandomPolicy(t.rng), t.seed+int64(id))
	})
	t.knownPeers = append(t.knownPeers, float64(len(n.Model().State.Known())))
	call("explore.prime", func() { w.Digest() })
	call("explore.fork", func() { w.Clone() })
	t.d.probeEvent(w, n.ID(), id)
	call("explore.lookahead", func() {
		// As steerAway configures it.
		x := explore.NewExplorer(3)
		x.MaxStates = 128
		x.Properties = t.d.props
		repo = x.Explore(w)
	})
	t.lookStates = append(t.lookStates, float64(repo.StatesExplored))
	call("explore.classes", func() { repo.ViolationClasses() })
	call("explore.digestfull", func() { w.DigestFull() })
	call("core.materialize", func() { t.d.cl.MaterializeWorld(explore.FirstPolicy, t.seed, t.d.timers) })
	t.rec.end(root)
}

// offlineTrace is the tracing state of one traced offline rep: a span
// per exploration and the scheduler observability of its report.
type offlineTrace struct {
	rec         *recorder
	elapsedS    []float64
	maxDepth    int
	highWater   int
	stealMisses int64
	classes     int
	// The one-worker exploration of the same world.
	seqStatesPerS float64
	seqMaxDepth   int
}

func newOfflineTrace() *offlineTrace { return &offlineTrace{rec: newRecorder()} }

// explore runs one exploration inside a span.
func (t *offlineTrace) explore(i int, x *explore.Explorer, w *explore.World) *explore.Report {
	s := t.rec.begin(i+1, 0, "explore.explore")
	r := x.Explore(w)
	t.rec.end(s)
	t.elapsedS = append(t.elapsedS, r.Elapsed.Seconds())
	if r.MaxDepth > t.maxDepth {
		t.maxDepth = r.MaxDepth
	}
	if r.WorkerHighWater > t.highWater {
		t.highWater = r.WorkerHighWater
	}
	t.stealMisses += r.StealMisses
	return r
}

// exploreSeq runs the one-worker exploration of the same world inside a
// span. The sequential engine's state count is exact, so it must spend
// its whole budget and no more.
func (t *offlineTrace) exploreSeq(x *explore.Explorer, w *explore.World) error {
	s := t.rec.begin(len(t.elapsedS)+1, 0, "explore.explore_w1")
	r := x.Explore(w)
	us := t.rec.end(s)
	if r.StatesExplored != x.MaxStates || !r.Safe() {
		return fmt.Errorf("one-worker exploration visited %d of %d states, %d violation(s) on a healthy snapshot", r.StatesExplored, x.MaxStates, len(r.Violations))
	}
	t.seqStatesPerS = float64(r.StatesExplored) / (us / 1e6)
	t.seqMaxDepth = r.MaxDepth
	return nil
}
