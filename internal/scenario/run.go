package scenario

import (
	"fmt"
	"sort"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
)

// PanicClass is the violation class under which contained handler panics
// are reported.
const PanicClass = "panic"

// Violation is the first live observation of a property violation by the
// run's periodic probes.
type Violation struct {
	Property string `json:"property"`
	At       Dur    `json:"at"`
}

// Result summarizes one scenario run.
type Result struct {
	Spec *Spec `json:"spec"`
	// Events is the compiled primitive fault event count — the shrink
	// metric's denominator.
	Events int `json:"events"`
	// Violations records the first probe observation of each violated
	// property.
	Violations []Violation `json:"violations,omitempty"`
	// Classes are the sorted, deduplicated violation classes observed:
	// property names plus PanicClass when any handler panic was contained.
	// Replaying a spec must reproduce exactly these.
	Classes []string           `json:"classes,omitempty"`
	Panics  []core.PanicRecord `json:"-"`
	// PanicCount mirrors len(Panics) for the JSON report.
	PanicCount int `json:"panic_count,omitempty"`
	// Truncated marks a run cut short by the wall-clock deadline; its
	// classes are a lower bound, not the schedule's verdict.
	Truncated bool `json:"truncated,omitempty"`
	// Digest is the final materialized world digest — the determinism
	// witness replay checks.
	Digest uint64 `json:"digest"`
	// Elapsed is the run's wall-clock cost.
	Elapsed time.Duration `json:"-"`
}

// HasClass reports whether class c was observed.
func (r *Result) HasClass(c string) bool {
	for _, got := range r.Classes {
		if got == c {
			return true
		}
	}
	return false
}

// Options tune a run without being part of the replayable spec: anything
// here must not change the virtual execution, only when we stop watching.
type Options struct {
	// Deadline, when nonzero, wall-clock-bounds the run. A run that hits
	// it returns partial results marked Truncated.
	Deadline time.Time
}

// Run executes the spec: build the app's deployment (through the app's own
// harness builder), compile and install the fault schedule, then
// advance virtual time in probe-sized steps, materializing the live
// cluster as an explorer world at each step and checking the app's safety
// properties. Probing at ProbeEvery (default 50ms) is essential for
// transient inconsistencies — the randtree orphaned-child window closes
// ~500ms after a reset when the next heartbeat check prunes — and uses
// MaterializeWorld so a violation seen live is by construction one the
// explorer's fault semantics can also reach.
//
// The run is deterministic given the spec (which carries its seed): the
// virtual engine, the schedule, and the workload all derive from it.
func Run(s *Spec, opt Options) (*Result, error) {
	start := time.Now() //crystalvet:wallclock stopwatch for Result.Elapsed; never reaches the virtual run
	spec := s.Clone()
	spec.fill()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := build(spec)
	eng := d.cl.Engine()
	sched, err := spec.Compile(d.fresh)
	if err != nil {
		return nil, err
	}
	sched.Install(d.cl)

	res := &Result{Spec: spec, Events: sched.Len()}
	seen := make(map[string]bool)
	probe := func() {
		w := d.cl.MaterializeWorld(explore.FirstPolicy, spec.Seed, d.timers)
		for _, p := range d.props {
			if seen[p.Name] || p.Check(w) {
				continue
			}
			seen[p.Name] = true
			res.Violations = append(res.Violations, Violation{
				Property: p.Name,
				At:       Dur(eng.Now()),
			})
		}
	}
	step := spec.ProbeEvery.D()
	for t := time.Duration(0); t < spec.Duration.D(); t += step {
		if !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) { //crystalvet:wallclock caller-imposed deadline; truncates the run (Truncated=true), never alters events
			res.Truncated = true
			break
		}
		eng.RunFor(step)
		probe()
	}

	res.Panics = d.cl.Panics()
	res.PanicCount = len(res.Panics)
	if res.PanicCount > 0 {
		seen[PanicClass] = true
	}
	for c := range seen {
		res.Classes = append(res.Classes, c)
	}
	sort.Strings(res.Classes)
	res.Digest = d.cl.MaterializeWorld(explore.FirstPolicy, spec.Seed, d.timers).DigestFull()
	res.Elapsed = time.Since(start) //crystalvet:wallclock stopwatch readout for Result.Elapsed; diagnostics only
	return res, nil
}

// ClassString renders the observed classes for one-line reports.
func (r *Result) ClassString() string {
	if len(r.Classes) == 0 {
		return "none"
	}
	return fmt.Sprintf("%v", r.Classes)
}
