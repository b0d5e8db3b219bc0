package explore

import (
	"fmt"
	"sync"

	"crystalchoice/internal/sm"
)

// StepAudit is the tally of an audited run (AuditSteps). Its counters are
// read after the runs that share it have returned.
type StepAudit struct {
	// Stepped counts states at which a property was decided by Step calls
	// (or by none: nothing was touched), Carried those of them that are
	// start worlds whose delta came from Explorer.Prior, Touched the
	// services those deltas named, and Refuted the Step calls that returned
	// false. Full counts states at which a property that has a Step was
	// nevertheless decided by Check (the engine's fallback), and Mismatches
	// states where the engine's verdict was not Check's.
	Stepped, Carried, Touched, Refuted, Full, Mismatches int

	mu      sync.Mutex
	pending map[*World]auditVerdict
}

func (a *StepAudit) String() string {
	return fmt.Sprintf("stepped=%d carried=%d touched=%d refuted=%d full=%d mismatches=%d",
		a.Stepped, a.Carried, a.Touched, a.Refuted, a.Full, a.Mismatches)
}

// auditVerdict is what the engine has concluded about one property on the
// world being checked, from the calls it made so far.
type auditVerdict struct {
	holds bool
	steps int
}

// AuditSuffix is appended to a property's name to name its referee.
const AuditSuffix = "/step!=check"

// AuditSteps returns props with a referee inserted after every property
// that has a Step: at each state the engine checks, whichever way it
// decided that property — by Step over the recorded delta, by Check, or by
// inheriting the parent's verdict when nothing was touched — the referee
// evaluates Check and reports a violation, under the property's name plus
// AuditSuffix, when the two differ. It is the oracle for Step authors and
// for the engine's delta bookkeeping alike; the properties themselves
// report what they would without it.
func AuditSteps(props []Property) ([]Property, *StepAudit) {
	a := &StepAudit{pending: make(map[*World]auditVerdict)}
	out := make([]Property, 0, 2*len(props))
	for _, p := range props {
		if p.Step == nil || p.Check == nil {
			out = append(out, p)
			continue
		}
		out = append(out, Property{
			Name: p.Name,
			Check: func(w *World) bool {
				ok := p.Check(w)
				a.note(w, ok, false)
				return ok
			},
			Step: func(w *World, id NodeID, prev sm.Service) bool {
				ok := p.Step(w, id, prev)
				a.note(w, ok, true)
				return ok
			},
		}, Property{
			Name:  p.Name + AuditSuffix,
			Check: func(w *World) bool { return a.settle(w, p.Check(w)) },
		})
	}
	return out, a
}

func (a *StepAudit) note(w *World, ok, step bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, seen := a.pending[w]
	if !seen {
		v.holds = true
	}
	v.holds = v.holds && ok
	if step {
		v.steps++
		if !ok {
			a.Refuted++
		}
	} else {
		a.Full++
	}
	a.pending[w] = v
}

// settle compares what the engine concluded on w with want. No call at
// all means no service was touched since a state the property held at.
func (a *StepAudit) settle(w *World, want bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, seen := a.pending[w]
	delete(a.pending, w)
	if !seen {
		v.holds = true
	}
	if v.steps > 0 || !seen {
		a.Stepped++
	}
	if w.step.carried {
		a.Carried++
		a.Touched += len(w.step.touched)
	}
	if v.holds != want {
		a.Mismatches++
		return false
	}
	return true
}
