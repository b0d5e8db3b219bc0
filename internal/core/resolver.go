// Package core implements the paper's primary contribution: the
// explicit-choice programming model and the CrystalBall-enabled runtime
// that resolves exposed choices against exposed objectives using a
// predictive system model.
//
// Services (internal/sm.Service) expose decisions by calling
// Env.Choose(sm.Choice{...}) instead of hard-coding policy. The runtime
// routes each call to the node's Resolver:
//
//   - First / Random / RoundRobin are the conventional strategies a
//     developer would otherwise bury in handler code;
//   - Predictive is CrystalBall: it builds a lookahead world from the
//     node's predictive model (its own pre-event state plus the freshest
//     neighborhood checkpoints), replays the triggering event once per
//     candidate with the choice forced, runs consequence prediction, and
//     picks the candidate that maximizes the installed objective, treating
//     any predicted safety violation as disqualifying.
//
// The runtime also implements execution steering (paper §2): before
// delivering a message it can predict the delivery's consequences and, if a
// safety violation is predicted and avoiding it is predicted safe, drop the
// message and break the connection with the sender.
package core

import (
	"math"
	"time"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// Resolver decides exposed choices for one node.
type Resolver interface {
	// Name identifies the strategy in traces and experiment tables.
	Name() string
	// Resolve returns an index in [0, c.N).
	Resolve(n *Node, c sm.Choice) int
}

// First always picks alternative 0 — the degenerate strategy of a developer
// who resolves the choice statically.
type First struct{}

// Name returns "first".
func (First) Name() string { return "first" }

// Resolve picks 0.
func (First) Resolve(*Node, sm.Choice) int { return 0 }

// Random resolves every choice uniformly at random. This is the
// Choice-Random configuration of the paper's Section 4.
type Random struct{}

// Name returns "random".
func (Random) Name() string { return "random" }

// Resolve draws from the node's deterministic RNG.
func (Random) Resolve(n *Node, c sm.Choice) int {
	if c.N <= 1 {
		return 0
	}
	return n.rng.Intn(c.N)
}

// RoundRobin cycles through alternatives per choice name — the Mencius-like
// static schedule for the consensus example.
type RoundRobin struct {
	counters map[string]int
}

// Name returns "roundrobin".
func (*RoundRobin) Name() string { return "roundrobin" }

// Resolve returns successive indices modulo c.N for each distinct name.
func (r *RoundRobin) Resolve(n *Node, c sm.Choice) int {
	if c.N <= 0 {
		return 0
	}
	if r.counters == nil {
		r.counters = make(map[string]int)
	}
	i := r.counters[c.Name] % c.N
	r.counters[c.Name]++
	return i
}

// Predictive is the CrystalBall resolver (paper §3.4).
type Predictive struct {
	// Depth is the consequence-prediction chain depth. Default 4.
	Depth int
	// Explore mixes in a random decision with this probability. Argmax
	// resolution couples the participants — with a shared, slightly stale
	// model every node converges on the same "best" target, the emergent
	// behavior the paper warns about (§3.4). A small exploration
	// probability decorrelates the fleet.
	Explore float64
}

// violationPenalty is subtracted from a candidate's score per predicted
// safety violation.
const violationPenalty = 1e12

// NewPredictive returns a Predictive resolver with default bounds.
func NewPredictive(depth int) *Predictive {
	if depth <= 0 {
		depth = 4
	}
	return &Predictive{Depth: depth}
}

// Name returns "crystalball".
func (*Predictive) Name() string { return "crystalball" }

// Resolve evaluates every candidate in a lookahead world and returns the
// one with the best predicted objective score.
func (p *Predictive) Resolve(n *Node, c sm.Choice) int {
	if c.N <= 1 {
		return 0
	}
	base := n.preEventState
	if base == nil {
		// No pre-event clone (e.g. choice made during Init): fall back.
		return Random{}.Resolve(n, c)
	}
	if p.Explore > 0 && n.rng.Float64() < p.Explore {
		return Random{}.Resolve(n, c)
	}
	// From here on the handler is blocked on a real decision — cache
	// lookup, or a full consequence prediction — so the wall-clock cost
	// is exactly what a live delivery window would have to absorb.
	start := time.Now() //crystalvet:wallclock stopwatch for decision-latency stats; never reaches world state
	defer func() { n.observeDecision(&n.stats.ResolveLatency, start) }()
	ev := n.currentEvent
	idx, key, skey, hit := p.cachedDecision(n, c, base, ev)
	if hit {
		return idx
	}
	// Tie-break uniformly among near-best candidates: with a sparse or
	// stale model many futures look identical, and always picking the
	// first candidate would systematically skew the system (e.g. pile
	// every forwarded join into the lowest-numbered child).
	ties := p.bestCandidates(n, c, base, ev)
	best := ties[n.rng.Intn(len(ties))]
	// Cache only decisive predictions. Caching a coin flip would freeze
	// it: e.g. gossip partners would lock into static pairs whenever all
	// futures score equal, partitioning the information flow.
	if len(ties) == 1 {
		n.decisionCache[key] = best
		if n.cluster.cfg.LookaheadClassCache {
			n.recordChoiceVerdict(skey, best, c.N)
		}
	}
	n.stats.Predictions++
	return best
}

// cachedDecision answers c from what earlier predictions left behind:
// the exact per-digest decision cache, then — under
// Config.LookaheadClassCache — the scenario-keyed class verdicts. The
// exact digest of a unique command misses every time, but an earlier
// decisive prediction of the same (choice, arity, event-kind) scenario
// answers in map-lookup time: the paper's "previous similar scenarios"
// fast path. Exact beats approximate. The keys come back with a miss so
// the caller can record its prediction under them.
func (p *Predictive) cachedDecision(n *Node, c sm.Choice, base sm.Service, ev *pendingEvent) (idx int, key, skey uint64, hit bool) {
	// Topology events invalidate every cached verdict — the per-digest
	// decisions along with class verdicts.
	n.syncCaches()
	h := sm.NewHasher().WriteString(c.Name).WriteUint(base.Digest()).WriteInt(int64(c.N))
	if ev != nil {
		h.WriteString(ev.label())
	}
	key = h.Sum()
	if idx, ok := n.decisionCache[key]; ok && idx < c.N {
		n.stats.CacheHits++
		return idx, key, 0, true
	}
	n.stats.CacheMisses++
	if n.cluster.cfg.LookaheadClassCache {
		skey = scenarioKey(c, ev)
		if idx, ok := n.classChoiceLookup(skey, c.N); ok {
			n.stats.ClassCacheHits++
			return idx, key, skey, true
		}
		n.stats.ClassCacheMisses++
	}
	return 0, key, skey, false
}

// bestCandidates runs one consequence prediction per candidate of c from
// base and returns the candidates whose score is within rounding of the
// best, in index order. A single survivor is a decisive prediction.
func (p *Predictive) bestCandidates(n *Node, c sm.Choice, base sm.Service, ev *pendingEvent) []int {
	obj := n.objective
	scores := make([]float64, c.N)
	bestScore := math.Inf(-1)
	for i := 0; i < c.N; i++ {
		scores[i] = p.evaluate(n, c, base, ev, i, obj)
		if scores[i] > bestScore {
			bestScore = scores[i]
		}
	}
	const eps = 1e-9
	var ties []int
	for i, s := range scores {
		if s >= bestScore-eps {
			ties = append(ties, i)
		}
	}
	return ties
}

func (p *Predictive) evaluate(n *Node, c sm.Choice, base sm.Service, ev *pendingEvent, candidate int, obj explore.Objective) float64 {
	look := n.cluster.cfg.Lookahead
	policy := explore.ForceFirst(n.id, c.Name, candidate, n.lookRand)
	if look.Workers > 1 {
		// ForceFirst's latch and the rng are shared by every forked
		// world; serialize them across the worker pool.
		policy = explore.Locked(policy)
	}
	w := n.buildLookahead(base.Clone(), policy)
	if ev != nil {
		ev.injectInto(w, n.id)
	}
	x := explore.NewExplorer(p.Depth)
	x.MaxStates = predictMaxStates
	x.Properties = n.cluster.cfg.Properties
	x.Objective = obj
	x.Options = look
	r := n.explore(x, w)
	score := r.MeanScore
	if obj == nil {
		score = 0
	}
	score -= violationPenalty * float64(len(r.Violations))
	return score
}
