package explore

import (
	"slices"

	"crystalchoice/internal/sm"
)

// stepRecord is a world's distance from the last state on its lineage
// that Explorer.check evaluated: which node services were forked for
// writing since, each with the frozen service it was forked from, and
// which properties failed there. It is what lets check run a property's
// Step over one handler's writes instead of its Check over every node
// (DESIGN.md §2.4.2). A record is only kept while some configured
// property has a Step (track); without one a world pays a flag test per
// handler execution and nothing else.
type stepRecord struct {
	track bool
	// known says touched is the whole service delta since that state. It
	// is false on a start world, after a write that left no pre-image (an
	// in-place handler run, ReplaceService, AddNode) and on a fork taken
	// between a step and its check.
	known bool
	// carried says touched was seeded from another run's start world
	// (carryVerdict) rather than recorded step by step; StepAudit counts it.
	carried bool
	failed  uint64 // bit i: Properties[i] failed at that state
	touched []stepTouch
	// first backs touched until a second node is touched, so a fresh world
	// (the world pool is emptied by every collection) records the common
	// one-node step without allocating. Worlds are never copied by value.
	first [1]stepTouch
	// props is set on a start world whose check ran to completion: the
	// property list failed is indexed by, so a later run can tell whether
	// the verdict is about its own properties (Explorer.Prior).
	props []Property
}

// stepTouch is one service a step forked: prev is the parent world's
// sealed service, never written again.
type stepTouch struct {
	id   NodeID
	prev sm.Service
}

func (s *stepRecord) has(id NodeID) bool {
	for _, t := range s.touched {
		if t.id == id {
			return true
		}
	}
	return false
}

// cloned records that node id's service was forked from prev for writing.
// A second fork of the same node before the next check keeps the first
// pre-image: that is the one the checked state held.
func (s *stepRecord) cloned(id NodeID, prev sm.Service) {
	if s.track && s.known && !s.has(id) {
		s.add(stepTouch{id, prev})
	}
}

func (s *stepRecord) add(t stepTouch) {
	if s.touched == nil {
		s.touched = s.first[:0]
	}
	s.touched = append(s.touched, t)
}

// wroteInPlace records a handler run on a service this world already owns.
// Its pre-image is gone unless the node was forked since the last check.
func (s *stepRecord) wroteInPlace(id NodeID) {
	if s.track && s.known && !s.has(id) {
		s.forget()
	}
}

// forget marks the delta unknown and drops the pre-images it pinned.
func (s *stepRecord) forget() {
	s.known, s.carried = false, false
	clear(s.touched)
	s.touched = s.touched[:0]
}

// inherit makes c the record of a fresh fork of the world holding p. The
// fork is the same state, so it carries p's verdict — unless p has stepped
// since its own check, when how far the fork is from a checked state is
// written down nowhere.
func (c *stepRecord) inherit(p *stepRecord) {
	c.track = p.track
	if p.track {
		c.known = p.known && len(p.touched) == 0
		c.failed = p.failed
	}
}

// holds evaluates property i of the run on w: by Step over the recorded
// delta when there is one and the property held on the state it starts
// from, from scratch otherwise. Exploration continues past a violating
// state, and Step says nothing about a state whose parent already failed.
func (s *stepRecord) holds(i int, p *Property, w *World) bool {
	if p.Step == nil || !s.track || !s.known || i >= 64 || s.failed&(1<<uint(i)) != 0 {
		return p.Check(w)
	}
	for _, t := range s.touched {
		if !p.Step(w, t.id, t.prev) {
			return false
		}
	}
	return true
}

// settle makes the world itself the checked state its forks and its next
// step start from.
func (s *stepRecord) settle(failed uint64) {
	if s.track {
		s.forget()
		s.known = true
		s.failed = failed
	}
}

func hasStep(props []Property) bool {
	return slices.ContainsFunc(props, func(p Property) bool { return p.Step != nil && p.Check != nil })
}

// carryVerdict seeds start world w's record from prior, the start world of
// an earlier run: if every one of the same properties held there and the
// two model the same nodes with the same down flags, w is prior with some
// services replaced, which is a delta like any other.
func (w *World) carryVerdict(prior *World, props []Property) {
	s := &w.step
	if !s.track || prior == nil {
		return
	}
	ps := &prior.step
	if !ps.known || ps.failed != 0 || len(ps.touched) != 0 ||
		len(ps.props) != len(props) || &ps.props[0] != &props[0] ||
		!slices.Equal(w.Nodes(), prior.Nodes()) {
		return
	}
	for i := range w.slots {
		if w.slots[i].down != prior.slots[i].down {
			return
		}
	}
	for i := range w.slots {
		if old := prior.slots[i].svc; !sameService(w.slots[i].svc, old) {
			s.add(stepTouch{w.nodeOrder[i], old})
		}
	}
	s.known, s.carried = true, true
}
