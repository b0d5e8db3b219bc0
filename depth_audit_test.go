// Depth-coverage audit of the one-worker scheduler. The dedup key carries
// no depth, so the deque's newest-first drain can mark a state first
// reached near the depth bound and prune a later, shallower visit whose
// subtree would have reached further. An oldest-first drain cannot: its
// first visit of a state is a shallowest one. The audit keeps that order
// as a test-only oracle and counts what the deque order gives up.
package crystalchoice

import (
	"testing"
	"time"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// fifoReference drains inner's frontier oldest-first — the order of the
// retired sequential scheduler — inside a single Expand, so the engine's
// own queue discipline never sees more than the one placeholder root.
type fifoReference struct{ inner explore.Strategy }

func (f fifoReference) Name() string { return "fifo(" + f.inner.Name() + ")" }

func (f fifoReference) Roots(x *explore.Explorer, ctx *explore.Ctx, w *explore.World) []explore.Unit {
	return []explore.Unit{{World: w.Clone()}}
}

func (f fifoReference) Expand(x *explore.Explorer, ctx *explore.Ctx, _ explore.Unit, r *explore.Report) []explore.Unit {
	queue := f.inner.Roots(x, ctx, ctx.Root())
	for head := 0; head < len(queue); head++ {
		if ctx.Exhausted() {
			r.Truncated = true
			break
		}
		// append copies the successors out of the worker's reusable
		// buffer before the next Expand overwrites it.
		queue = append(queue, f.inner.Expand(x, ctx, queue[head], r)...)
		queue[head] = explore.Unit{}
	}
	return nil
}

// pingRelay is the disjoint-chain toy of internal/explore's fanWorld: a
// ping bumps a counter and travels one hop round the ring.
type pingRelay struct {
	id      sm.NodeID
	n       int
	counter int
}

func (r *pingRelay) Init(sm.Env) {}
func (r *pingRelay) OnMessage(env sm.Env, m *sm.Msg) {
	r.counter++
	if hops := m.Body.(int); hops > 0 {
		env.Send(sm.NodeID((int(r.id)+1)%r.n), "ping", hops-1, 0)
	}
}
func (r *pingRelay) OnTimer(sm.Env, string) {}
func (r *pingRelay) Clone() sm.Service      { c := *r; return &c }
func (r *pingRelay) Digest() uint64 {
	return sm.NewHasher().WriteNode(r.id).WriteInt(int64(r.counter)).Sum()
}

// fanWorld seeds `chains` ping chains `width` nodes apart on one ring.
func fanWorld(chains, width, hops int) *explore.World {
	w := explore.NewWorld(explore.FirstPolicy, 1)
	n := chains * width
	for i := 0; i < n; i++ {
		w.AddNode(sm.NodeID(i), &pingRelay{id: sm.NodeID(i), n: n})
	}
	for c := 0; c < chains; c++ {
		w.InjectMessage(&sm.Msg{Src: sm.NodeID(c * width), Dst: sm.NodeID(c * width), Kind: "ping", Body: hops})
	}
	return w
}

// TestDepthCoverageAudit runs the full-interleaving fan-out untruncated
// at Workers: 1, once in the scheduler's order and once in the reference
// order, on a fan world whose chains outrun the depth bound and on the
// three engine-golden worlds. The violation-class sets must agree; the
// share of the reference's reached states the deque order also reaches
// is logged (EXPERIMENTS.md "Retired arms" records it).
func TestDepthCoverageAudit(t *testing.T) {
	cases := []struct {
		name  string
		world func() *explore.World
		depth int
		props []explore.Property
	}{
		{"fan", func() *explore.World { return fanWorld(2, 2, 6) }, 8, []explore.Property{{
			Name: "counter-under-2",
			Check: func(w *explore.World) bool {
				for _, id := range w.Nodes() {
					if w.Service(id).(*pingRelay).counter >= 2 {
						return false
					}
				}
				return true
			}}}},
		{"randtree", goldenRandtreeWorld, 5,
			[]explore.Property{randtree.NoParentCycleProperty(), randtree.DegreeBoundProperty()}},
		{"gossip", goldenGossipWorld, 4, nil},
		{"paxos", goldenPaxosWorld, 6, nil},
		{"snapshot", func() *explore.World {
			e := randtree.NewExperiment(randtree.ExperimentConfig{N: 7, Seed: 1, Setup: randtree.SetupChoiceRandom})
			e.Run(5 * time.Second)
			return e.Cluster.MaterializeWorld(explore.FirstPolicy, 1, randtree.Timers())
		}, 4, []explore.Property{randtree.NoParentCycleProperty(), randtree.DegreeBoundProperty(), randtree.NoOrphanedChildProperty()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(strat explore.Strategy) (*explore.Report, map[uint64]bool) {
				reached := map[uint64]bool{}
				x := explore.NewExplorer(tc.depth)
				x.MaxStates = 1 << 20
				x.Strategy = strat
				x.Properties = append([]explore.Property{{Name: "reached", Check: func(w *explore.World) bool {
					reached[w.Digest()] = true
					return true
				}}}, tc.props...)
				w := tc.world()
				// The golden worlds resolve choices from one shared rng,
				// which makes a choice's outcome depend on how many were
				// resolved before it — on the drain order under audit.
				w.Policy = explore.FirstPolicy
				r := x.Explore(w)
				if r.Truncated {
					t.Fatalf("%s: truncated at %d states; the audit needs the whole bounded space", strat.Name(), r.StatesExplored)
				}
				return r, reached
			}
			ref, refReached := run(fifoReference{explore.BFS{}})
			got, gotReached := run(explore.BFS{})
			classes := func(r *explore.Report) map[uint64]string {
				out := map[uint64]string{}
				for _, c := range r.ViolationClasses() {
					out[c.Digest] = c.Property + " via " + c.Signature
				}
				return out
			}
			refClasses, gotClasses := classes(ref), classes(got)
			for d, c := range refClasses {
				if _, ok := gotClasses[d]; !ok {
					t.Errorf("deque order misses violation class %s", c)
				}
			}
			for d, c := range gotClasses {
				if _, ok := refClasses[d]; !ok {
					t.Errorf("deque order finds violation class %s the reference does not", c)
				}
			}
			covered := 0
			for d := range refReached {
				if gotReached[d] {
					covered++
				}
			}
			for d := range gotReached {
				if !refReached[d] {
					t.Errorf("deque order reached state %x the reference did not", d)
				}
			}
			t.Logf("reference: %d states explored, %d distinct reached, %d classes, depth %d; deque: %d explored, %d/%d reached (%.1f%%), %d classes, depth %d",
				ref.StatesExplored, len(refReached), len(refClasses), ref.MaxDepth,
				got.StatesExplored, covered, len(refReached), 100*float64(covered)/float64(len(refReached)),
				len(gotClasses), got.MaxDepth)
		})
	}
}
