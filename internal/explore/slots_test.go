package explore

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"crystalchoice/internal/sm"
)

// The fork-isolation oracle: seeded random operation sequences over a
// tree of copy-on-write forks, every live world held after every step to
// a map-based reference model that copies everything on fork. A write
// that leaks through a shared slot, service or timer set — or a recycled
// shell that reclaims a container some live world still reads — shows as
// a world disagreeing with its reference.

// cellTimers are the timer names a cell arms and cancels.
var cellTimers = []string{"a", "b", "c"}

// cellEffect is what one handler run does, decided by the counter alone so
// the reference replays it without running a service.
type cellEffect struct {
	val         int
	set, cancel string // timer to arm, then to cancel; "" for none
	send        bool   // one message to the next node
}

func react(val, delta int) cellEffect {
	v := val + delta
	e := cellEffect{val: v, send: v%5 != 0}
	if v%3 == 0 {
		e.set = cellTimers[v%len(cellTimers)]
	}
	if v%4 == 1 {
		e.cancel = cellTimers[(v/4)%len(cellTimers)]
	}
	return e
}

// cell is the oracle's service: a counter whose handlers apply react.
type cell struct {
	id, next NodeID
	val      int
}

func (c *cell) apply(env sm.Env, delta int) {
	e := react(c.val, delta)
	c.val = e.val
	if e.set != "" {
		env.SetTimer(e.set, time.Second)
	}
	if e.cancel != "" {
		env.CancelTimer(e.cancel)
	}
	if e.send {
		env.Send(c.next, "ping", 1+e.val%3, 8)
	}
}

func (c *cell) Init(env sm.Env)                 { c.apply(env, 1) }
func (c *cell) OnMessage(env sm.Env, m *sm.Msg) { c.apply(env, m.Body.(int)) }
func (c *cell) OnTimer(env sm.Env, name string) { c.apply(env, len(name)+1) }
func (c *cell) Clone() sm.Service               { cp := *c; return &cp }
func (c *cell) Digest() uint64                  { return cellDigest(c.id, c.val) }
func (c *cell) String() string                  { return fmt.Sprintf("cell%d=%d", c.id, c.val) }

func cellDigest(id NodeID, val int) uint64 {
	return sm.NewHasher().WriteNode(id).WriteInt(int64(val)).Sum()
}

// newCell returns node ids[k]'s cell holding val; it sends to ids[k+1].
func newCell(ids []NodeID, k, val int) *cell {
	return &cell{id: ids[k], next: ids[(k+1)%len(ids)], val: val}
}

// refWorld is the reference model of one world: plain per-node arrays,
// copied whole on every fork.
type refWorld struct {
	w        *World
	parent   int // handle of the world this one was forked from; -1 for none
	ids      []NodeID
	val      []int
	inst     []sm.Service // installed by ReplaceService/ForkWith/Patch, not written since
	timers   []map[string]bool
	down     []bool
	inflight []*sm.Msg
}

func (r *refWorld) fork(w *World, parent int) *refWorld {
	c := &refWorld{w: w, parent: parent, ids: r.ids, val: slices.Clone(r.val), inst: slices.Clone(r.inst),
		down: slices.Clone(r.down), inflight: slices.Clone(r.inflight)}
	for _, set := range r.timers {
		c.timers = append(c.timers, maps.Clone(set))
	}
	return c
}

// run replays one handler execution on node k, given the messages the
// world reported it produced.
func (r *refWorld) run(k, delta int, produced []*sm.Msg) error {
	e := react(r.val[k], delta)
	r.val[k], r.inst[k] = e.val, nil
	if e.set != "" {
		r.timers[k][e.set] = true
	}
	if e.cancel != "" {
		delete(r.timers[k], e.cancel)
	}
	if e.send != (len(produced) == 1) || len(produced) > 1 {
		return fmt.Errorf("node %d's handler produced %d messages, reference send=%v", r.ids[k], len(produced), e.send)
	}
	r.inflight = append(r.inflight, produced...)
	return nil
}

// matches compares the world with its reference.
func (r *refWorld) matches() error {
	w := r.w
	if !slices.Equal(w.Nodes(), r.ids) {
		return fmt.Errorf("nodes %v, reference %v", w.Nodes(), r.ids)
	}
	for k, id := range r.ids {
		svc := w.Service(id)
		if c, ok := svc.(*cell); !ok || c.val != r.val[k] || svc.Digest() != cellDigest(id, r.val[k]) {
			return fmt.Errorf("node %d holds %v, reference %d", id, svc, r.val[k])
		}
		if r.inst[k] != nil && !sameService(svc, r.inst[k]) {
			return fmt.Errorf("node %d lost the service installed in it", id)
		}
		if got, want := w.PendingTimers(id), slices.Sorted(maps.Keys(r.timers[k])); !slices.Equal(got, want) {
			return fmt.Errorf("node %d has timers %v pending, reference %v", id, got, want)
		}
		if w.IsDown(id) != r.down[k] {
			return fmt.Errorf("node %d down=%v, reference %v", id, w.IsDown(id), r.down[k])
		}
	}
	if !slices.Equal(w.Inflight, r.inflight) {
		return fmt.Errorf("%d messages in flight, reference %d", len(w.Inflight), len(r.inflight))
	}
	if d, f := w.Digest(), w.DigestFull(); d != f {
		return fmt.Errorf("maintained digest %#x, from scratch %#x", d, f)
	}
	return nil
}

// TestSlotForksIsolated runs the oracle. Handle 0 is a standing world: it
// is only ever forked with ForkWith and written with Patch, as the
// predictive model's is; every other world takes any operation.
func TestSlotForksIsolated(t *testing.T) {
	ctx := &Ctx{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		ids := make([]NodeID, n)
		for k := range ids {
			ids[k] = NodeID(k)
			if seed%2 == 0 {
				ids[k] = NodeID(3*k + 1) // sparse IDs: slots found by search
			}
		}
		standing := NewWorld(FirstPolicy, seed)
		root := &refWorld{w: standing, parent: -1, ids: ids}
		for k := range ids {
			v := rng.Intn(7)
			standing.AddNode(ids[k], newCell(ids, k, v))
			root.val = append(root.val, v)
			root.inst = append(root.inst, nil)
			root.timers = append(root.timers, map[string]bool{})
			root.down = append(root.down, false)
		}
		standing.Digest()
		standing.Freeze()
		refs := []*refWorld{root}
		live := []int{}
		forked := func(r *refWorld, w *World, parent int) {
			refs = append(refs, r.fork(w, parent))
			live = append(live, len(refs)-1)
		}
		descends := func(h, anc int) bool {
			for ; h >= 0; h = refs[h].parent {
				if h == anc {
					return true
				}
			}
			return false
		}
		for step := 0; step < 400; step++ {
			op := rng.Intn(15)
			if len(live) == 0 {
				op = 10
			} else if len(live) > 10 {
				op = 12
			}
			var h int
			if len(live) > 0 {
				h = live[rng.Intn(len(live))]
			}
			r := refs[h]
			w := r.w
			k := rng.Intn(n)
			id := ids[k]
			name := cellTimers[rng.Intn(len(cellTimers))]
			var what string
			var err error
			switch op {
			case 0:
				b := rng.Intn(2) == 0
				what = fmt.Sprintf("SetDown(%d, %v)", id, b)
				w.SetDown(id, b)
				r.down[k] = b
			case 1:
				what = fmt.Sprintf("SetTimerPending(%d, %s)", id, name)
				w.SetTimerPending(id, name)
				r.timers[k][name] = true
			case 2, 3:
				what = fmt.Sprintf("FireTimer(%d, %s)", id, name)
				out := w.FireTimer(id, name)
				delete(r.timers[k], name)
				if !r.down[k] {
					err = r.run(k, len(name)+1, out)
				} else if len(out) != 0 {
					err = fmt.Errorf("a down node's timer ran")
				}
			case 4, 5:
				if len(r.inflight) == 0 {
					continue
				}
				i := rng.Intn(len(r.inflight))
				m := r.inflight[i]
				what = fmt.Sprintf("DeliverMessage(%d) to %d", i, m.Dst)
				out := w.DeliverMessage(i)
				r.inflight = slices.Delete(r.inflight, i, i+1)
				if dk := slices.Index(ids, m.Dst); !r.down[dk] {
					err = r.run(dk, m.Body.(int), out)
				} else if len(out) != 0 {
					err = fmt.Errorf("a down node received a message")
				}
			case 6:
				svc := newCell(ids, k, rng.Intn(50))
				what = fmt.Sprintf("ReplaceService(%d, %v)", id, svc)
				w.ReplaceService(id, svc)
				r.val[k], r.inst[k] = svc.val, svc
			case 7:
				if !r.down[k] {
					what = fmt.Sprintf("Crash(%d)", id)
					w.Crash(id)
					r.down[k], r.timers[k] = true, map[string]bool{}
					break
				}
				var svc *cell
				if rng.Intn(2) == 0 {
					svc = newCell(ids, k, rng.Intn(50))
					r.val[k] = svc.val
				}
				what = fmt.Sprintf("Recover(%d, %v)", id, svc)
				var out []*sm.Msg
				if svc != nil {
					out = w.Recover(id, svc)
				} else {
					out = w.Recover(id, nil)
				}
				r.down[k] = false
				err = r.run(k, 1, out)
			case 8:
				what = "Freeze"
				w.Freeze()
			case 9:
				what = fmt.Sprintf("fork of %d", h)
				if rng.Intn(2) == 0 {
					forked(r, w.fork(), h)
				} else {
					forked(r, w.Clone(), h)
				}
			case 10:
				svc := newCell(ids, k, rng.Intn(50))
				what = fmt.Sprintf("standing ForkWith(%d, %v)", id, svc)
				forked(root, standing.ForkWith(id, svc), 0)
				nr := refs[len(refs)-1]
				nr.val[k], nr.inst[k] = svc.val, svc
			case 11:
				svc := newCell(ids, k, rng.Intn(50))
				what = fmt.Sprintf("standing Patch(%d, %v)", id, svc)
				standing.Patch(id, svc)
				root.val[k], root.inst[k] = svc.val, svc
			case 12:
				what = fmt.Sprintf("release %d", h)
				live = slices.DeleteFunc(live, func(x int) bool { return x == h })
				ctx.release(w)
			case 13:
				if slices.ContainsFunc(live, func(l int) bool { return l != h && descends(l, h) }) {
					continue
				}
				what = fmt.Sprintf("releaseExhausted %d", h)
				live = slices.DeleteFunc(live, func(x int) bool { return x == h })
				ctx.releaseExhausted(w)
			case 14:
				// The first timer write after a Freeze unseals the world and
				// copies the list; the writes after it, the fired handler's
				// included, go in place.
				other := cellTimers[rng.Intn(len(cellTimers))]
				what = fmt.Sprintf("Freeze, SetTimerPending(%d, %s), SetTimerPending(%d, %s), FireTimer(%d, %s)", id, name, id, other, id, name)
				w.Freeze()
				w.SetTimerPending(id, name)
				w.SetTimerPending(id, other)
				out := w.FireTimer(id, name)
				r.timers[k][other] = true
				delete(r.timers[k], name)
				if !r.down[k] {
					err = r.run(k, len(name)+1, out)
				} else if len(out) != 0 {
					err = fmt.Errorf("a down node's timer ran")
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d, world %d, %s: %v", seed, step, h, what, err)
			}
			for _, l := range append([]int{0}, live...) {
				if err := refs[l].matches(); err != nil {
					t.Fatalf("seed %d step %d after %s on world %d: world %d: %v", seed, step, what, h, l, err)
				}
			}
		}
	}
}
