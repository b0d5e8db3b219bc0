package scenario

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"crystalchoice/internal/explore"
)

// churnSpec is the canonical violating scenario used across these tests:
// a joined 15-node tree suffers a burst of cold resets, and resetting any
// interior node orphans its children (the paper's §2 inconsistency).
func churnSpec() *Spec {
	return &Spec{
		App: "randtree", N: 15, Seed: 1, Duration: Dur(8 * time.Second),
		Churn: &Churn{
			Start: Dur(5 * time.Second), End: Dur(7 * time.Second),
			Every: Dur(300 * time.Millisecond), Cold: true,
		},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := churnSpec()
	s.Events = []Event{
		{At: Dur(time.Second), Op: OpCrash, Nodes: []int{3}},
		{At: Dur(2 * time.Second), Op: OpRestart, Nodes: []int{3}, Cold: true},
		{At: Dur(3 * time.Second), Op: OpPartition, A: []int{0, 1}, B: []int{2}},
	}
	s.Flaps = []Flap{{A: []int{0}, B: []int{1}, Start: Dur(time.Second), Period: Dur(400 * time.Millisecond), Count: 2}}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s.fill() // Load fills defaults; compare against the filled original
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", s, got)
	}
}

func TestDurAcceptsStringsAndNanos(t *testing.T) {
	var d Dur
	if err := json.Unmarshal([]byte(`"1.5s"`), &d); err != nil || d.D() != 1500*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`250000000`), &d); err != nil || d.D() != 250*time.Millisecond {
		t.Fatalf("nanos form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"parsecs"`), &d); err == nil {
		t.Fatal("bad unit accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	sec := func(n int) Dur { return Dur(time.Duration(n) * time.Second) }
	base := func() *Spec {
		s := &Spec{App: "randtree", N: 4, Duration: sec(10)}
		s.fill()
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown app", func(s *Spec) { s.App = "quake" }},
		{"unknown variant", func(s *Spec) { s.Variant = "rarest" }},
		{"one node", func(s *Spec) { s.N = 1 }},
		{"paxos too small", func(s *Spec) { s.App = "paxos"; s.N = 2 }},
		{"paxos too large", func(s *Spec) { s.App = "paxos"; s.N = 65 }},
		{"negative budget", func(s *Spec) { s.MaxFaults = -1 }},
		{"steering without a property", func(s *Spec) { s.App = "dissem"; s.Steering = true }},
		{"event past end", func(s *Spec) { s.Events = []Event{{At: sec(11), Op: OpCrash, Nodes: []int{0}}} }},
		{"node out of range", func(s *Spec) { s.Events = []Event{{At: sec(1), Op: OpReset, Nodes: []int{4}}} }},
		{"unknown op", func(s *Spec) { s.Events = []Event{{At: sec(1), Op: "meteor", Nodes: []int{0}}} }},
		{"restart without crash", func(s *Spec) { s.Events = []Event{{At: sec(1), Op: OpRestart, Nodes: []int{2}}} }},
		{"double crash", func(s *Spec) {
			s.Events = []Event{
				{At: sec(1), Op: OpCrash, Nodes: []int{2}},
				{At: sec(2), Op: OpCrash, Nodes: []int{2}},
			}
		}},
		{"overlapping partition groups", func(s *Spec) {
			s.Events = []Event{{At: sec(1), Op: OpPartition, A: []int{0, 1}, B: []int{1}}}
		}},
		{"empty partition group", func(s *Spec) {
			s.Events = []Event{{At: sec(1), Op: OpPartition, A: []int{0}}}
		}},
		{"over fault budget", func(s *Spec) {
			s.MaxFaults = 1
			s.Events = []Event{
				{At: sec(1), Op: OpReset, Nodes: []int{1}},
				{At: sec(2), Op: OpReset, Nodes: []int{2}},
			}
		}},
		{"quorum lost", func(s *Spec) {
			s.PreserveQuorum = true
			s.Events = []Event{
				{At: sec(1), Op: OpCrash, Nodes: []int{1}},
				{At: sec(2), Op: OpCrash, Nodes: []int{2}},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Fatalf("spec accepted: %+v", s)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid base spec rejected: %v", err)
	}
	// Quorum-safe variants of the rejected shapes must pass.
	s := base()
	s.PreserveQuorum = true
	s.Events = []Event{
		{At: sec(1), Op: OpCrash, Nodes: []int{1}},
		{At: sec(2), Op: OpRestart, Nodes: []int{1}},
		{At: sec(3), Op: OpReset, Nodes: []int{2}}, // resets are down for zero time
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("quorum-safe spec rejected: %v", err)
	}
}

func TestExpandFlapsAndChurn(t *testing.T) {
	s := &Spec{
		App: "gossip", N: 6, Duration: Dur(10 * time.Second),
		Events: []Event{{At: Dur(9 * time.Second), Op: OpHealAll}},
		Flaps: []Flap{{
			A: []int{0, 1}, B: []int{2, 3},
			Start: Dur(time.Second), Period: Dur(time.Second), Count: 3,
		}},
		Churn: &Churn{Start: Dur(2 * time.Second), End: Dur(4 * time.Second), Every: Dur(time.Second)},
	}
	s.fill()
	events, err := s.expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 cycles × (cut + heal) + 2 churn resets + 1 explicit heal-all.
	if len(events) != 9 {
		t.Fatalf("expanded to %d events, want 9: %+v", len(events), events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events not time-sorted: %v after %v", events[i].At, events[i-1].At)
		}
	}
	// Churn cycles deterministically through non-root candidates.
	var resets []int
	for _, ev := range events {
		if ev.Op == OpReset {
			resets = append(resets, ev.Nodes[0])
		}
	}
	if !reflect.DeepEqual(resets, []int{1, 2}) {
		t.Fatalf("churn picked %v, want [1 2]", resets)
	}
	// Normalize folds the expansion into Events and drops the generators.
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 9 || s.Flaps != nil || s.Churn != nil {
		t.Fatalf("normalize left %d events, flaps=%v churn=%v", len(s.Events), s.Flaps, s.Churn)
	}
}

// TestRunRediscoversOrphanedChild pins the scenario lab's core claim: a
// scripted reset burst drives the live deployment into the orphaned-child
// inconsistency, and the periodic world probes observe it inside its
// transient window.
func TestRunRediscoversOrphanedChild(t *testing.T) {
	r, err := Run(churnSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasClass("rt.no-orphaned-child") {
		t.Fatalf("churn scenario observed classes %v, want rt.no-orphaned-child", r.Classes)
	}
	if r.Events != 7 {
		t.Fatalf("compiled %d events, want 7", r.Events)
	}
}

// TestReplayDeterminism pins the repro contract: the same spec replays to
// the same violation classes and the same final world digest.
func TestReplayDeterminism(t *testing.T) {
	a, err := Run(churnSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(churnSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Classes, b.Classes) || a.Digest != b.Digest {
		t.Fatalf("replay diverged: classes %v vs %v, digest %x vs %x", a.Classes, b.Classes, a.Digest, b.Digest)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	template := Spec{App: "randtree", N: 10, Duration: Dur(8 * time.Second), MaxFaults: 10, PreserveQuorum: true}
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(template, seed)
		b := Generate(template, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated spec invalid: %v", seed, err)
		}
		events, _ := a.expand()
		if len(events) == 0 || len(events) > 10 {
			t.Fatalf("seed %d: %d events, want 1..10", seed, len(events))
		}
		if a.Seed != seed {
			t.Fatalf("seed %d not recorded in spec", seed)
		}
	}
}

// TestFuzzRediscoversOrphanedChild drives the fuzz loop end to end: random
// valid schedules against the randtree harness must rediscover the known
// rejoin violation within a modest seed budget.
func TestFuzzRediscoversOrphanedChild(t *testing.T) {
	template := Spec{App: "randtree", N: 12, Duration: Dur(8 * time.Second)}
	for seed := int64(1); seed <= 30; seed++ {
		s := Generate(template, seed)
		r, err := Run(s, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.HasClass("rt.no-orphaned-child") {
			t.Logf("rediscovered at seed %d with %d events (classes %v)", seed, r.Events, r.Classes)
			return
		}
	}
	t.Fatal("30 fuzz seeds found no orphaned-child violation")
}

// TestShrinkMinimizes pins the shrinker: a violating schedule padded with
// noise reduces to well under a quarter of its events while still
// reproducing the class, and every candidate the oracle saw was valid.
func TestShrinkMinimizes(t *testing.T) {
	s := churnSpec()
	// Pad with noise: crash/restart windows, partition windows, and a flap
	// that have nothing to do with the violation.
	sec := func(n float64) Dur { return Dur(time.Duration(n * float64(time.Second))) }
	s.Events = []Event{
		{At: sec(1), Op: OpCrash, Nodes: []int{9}},
		{At: sec(1.5), Op: OpRestart, Nodes: []int{9}},
		{At: sec(2), Op: OpPartition, A: []int{10}, B: []int{11}},
		{At: sec(2.5), Op: OpHeal, A: []int{10}, B: []int{11}},
		{At: sec(3), Op: OpPartition, A: []int{12}, B: []int{13, 14}},
		{At: sec(6), Op: OpHealAll},
	}
	s.Flaps = []Flap{{A: []int{9}, B: []int{10}, Start: sec(1), Period: sec(0.5), Count: 3}}
	before := s.Clone()
	if err := before.Normalize(); err != nil {
		t.Fatal(err)
	}
	orig := len(before.Events)

	runs := 0
	oracle := func(c *Spec) (*Result, error) {
		runs++
		if err := c.Validate(); err != nil {
			t.Fatalf("oracle handed an invalid candidate: %v", err)
		}
		return Run(c, Options{})
	}
	shrunk, err := Shrink(s, "rt.no-orphaned-child", oracle)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shrunk %d -> %d events in %d oracle runs", orig, len(shrunk.Events), runs)
	if len(shrunk.Events)*4 > orig {
		t.Fatalf("shrink left %d of %d events, over the 25%% bar", len(shrunk.Events), orig)
	}
	r, err := Run(shrunk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasClass("rt.no-orphaned-child") {
		t.Fatalf("shrunk spec lost the violation: classes %v", r.Classes)
	}
}

// TestRunDeadlineTruncates pins the wall-clock bound: an impossible
// deadline yields a partial result marked Truncated instead of an overrun.
func TestRunDeadlineTruncates(t *testing.T) {
	r, err := Run(churnSpec(), Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Fatal("expired deadline did not truncate the run")
	}
}

// TestAllAppsRunCleanSpec exercises every harness through the spec path:
// a mild schedule must build, run, and come back without error for each
// of the five apps.
func TestAllAppsRunCleanSpec(t *testing.T) {
	for _, app := range Apps {
		app := app
		t.Run(app, func(t *testing.T) {
			s := &Spec{
				App: app, N: 5, Seed: 3, Duration: Dur(3 * time.Second),
				ProbeEvery: Dur(200 * time.Millisecond),
				Events: []Event{
					{At: Dur(time.Second), Op: OpReset, Nodes: []int{2}, Cold: true},
					{At: Dur(1500 * time.Millisecond), Op: OpPartition, A: []int{1}, B: []int{3}},
					{At: Dur(2 * time.Second), Op: OpHeal, A: []int{1}, B: []int{3}},
				},
			}
			r, err := Run(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Events != 3 {
				t.Fatalf("compiled %d events, want 3", r.Events)
			}
			if r.PanicCount != 0 {
				t.Fatalf("clean spec contained %d panics: %v", r.PanicCount, r.Panics)
			}
		})
	}
}

// TestSteeringSpecRuns pins the crystalball-steering attachment path.
func TestSteeringSpecRuns(t *testing.T) {
	s := churnSpec()
	s.Steering = true
	if _, err := Run(s, Options{}); err != nil {
		t.Fatal(err)
	}
}

// flapSpec is the steering-under-flaps scenario: gossip publishes under
// execution steering while a 3|3 cut flaps twice.
func flapSpec() *Spec {
	return &Spec{
		App: "gossip", N: 6, Seed: 11, Updates: 12,
		Duration: Dur(3 * time.Second),
		Steering: true,
		Flaps: []Flap{{
			A: []int{0, 1, 2}, B: []int{3, 4, 5},
			Start:  Dur(600 * time.Millisecond),
			Period: Dur(800 * time.Millisecond),
			Count:  2,
		}},
	}
}

// runFlaps drives flapSpec white-box — build, compile, install, run —
// so tests can read the cluster's stats and materialize its final world.
func runFlaps(t *testing.T) (*Spec, *deployment) {
	t.Helper()
	s := flapSpec()
	d := build(s)
	sched, err := s.Compile(d.fresh)
	if err != nil {
		t.Fatal(err)
	}
	sched.Install(d.cl)
	d.cl.Engine().RunFor(s.Duration.D())
	return s, d
}

// TestSteeringUnderFlapsIsDeterministic pins that steering's wall-clock
// instrumentation leaves the virtual execution byte-identical: the same
// seed under steering and partition flaps ends in the same digest, with
// steering interposing over a real property and one latency sample
// recorded per check.
func TestSteeringUnderFlapsIsDeterministic(t *testing.T) {
	r1, err := Run(flapSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(flapSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("instrumented runs diverged: digest %#x vs %#x", r1.Digest, r2.Digest)
	}
	if len(r1.Classes) != 0 {
		t.Fatalf("healthy gossip run violated %v", r1.Classes)
	}
	_, d := runFlaps(t)
	if len(d.props) == 0 {
		t.Fatal("gossip spec steers over no property")
	}
	st := d.cl.Stats()
	if st.SteeringChecks == 0 {
		t.Fatal("steering never interposed")
	}
	if st.SteerLatency.N() != st.SteeringChecks {
		t.Fatalf("SteerLatency samples = %d, want one per check (%d)", st.SteerLatency.N(), st.SteeringChecks)
	}
}

// TestSteeringUnderFlapsDigestParity pins live<->explorer parity on the
// same flapping deployment: the incremental digest of the materialized
// final world equals its from-scratch digest.
func TestSteeringUnderFlapsDigestParity(t *testing.T) {
	s, d := runFlaps(t)
	w := d.cl.MaterializeWorld(explore.FirstPolicy, s.Seed, d.timers)
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("live<->explorer digest parity broken: incremental %#x != full %#x", got, want)
	}
}

// TestTrackerSteeringSpecChecksRegistry pins that a tracker spec with
// steering on interposes over the registry property instead of nothing.
func TestTrackerSteeringSpecChecksRegistry(t *testing.T) {
	s := &Spec{App: "tracker", N: 5, Seed: 3, Duration: Dur(2 * time.Second), Steering: true}
	d := build(s)
	d.cl.Engine().RunFor(s.Duration.D())
	if len(d.props) == 0 || d.cl.Stats().SteeringChecks == 0 {
		t.Fatalf("tracker steering spec: %d properties, %d checks", len(d.props), d.cl.Stats().SteeringChecks)
	}
}
