package explore

// Lazy trace materialization. Labels and traces are only ever read when
// a violation is recorded or a golden dump is printed, so in-flight
// branches carry a compact parent-pointer path: one pathNode per step,
// holding the action's identity (message pointer, interned timer name,
// fault kind+target) packed into two machine words plus the parent link.
// The human-readable trace is formatted only inside Explorer.check when a
// property actually fails. Formatting a label and copying the trace slice
// on every step was measured against this in EXPERIMENTS.md E15, and
// heap-allocated nodes against the arenas below in E16.

import (
	"strconv"
	"sync"
	"sync/atomic"

	"crystalchoice/internal/sm"
)

// Pseudo step kinds, beyond the Action* constants: trace steps that are
// not schedulable actions.
const (
	stepDrop          byte = 'd' // loss branch of an unreliable datagram
	stepGenericSilent byte = 'S' // generic node absorbs a message silently
	stepGenericReact  byte = 'g' // generic node reaction branch #ix
)

// step describes one trace step of an exploration branch: an action the
// branch took, or a pseudo step (drop, generic silence/reaction).
type step struct {
	kind byte
	msg  *sm.Msg // delivered or dropped message (kinds 'm', 'd')
	node NodeID  // timer or fault target
	name string  // timer name
	ix   int     // generic reaction index
}

// actionStep converts a schedulable action into its trace step.
func actionStep(a Action) step {
	switch a.Kind {
	case ActionMessage:
		return step{kind: ActionMessage, msg: a.Msg}
	case ActionTimer:
		return step{kind: ActionTimer, node: a.Node, name: a.Timer}
	default:
		return step{kind: a.Kind, node: a.Node}
	}
}

// label formats the step's human-readable trace label. The formats are
// pinned by the golden files and by canonLabel: message "src->dst kind",
// timer "node!name", fault "<verb> node", drop "drop <message label>".
func (s step) label() string {
	switch s.kind {
	case ActionMessage:
		return s.msg.String()
	case stepDrop:
		return "drop " + s.msg.String()
	case ActionTimer:
		return s.node.String() + "!" + s.name
	case ActionCrash:
		return "crash " + s.node.String()
	case ActionRecover:
		return "recover " + s.node.String()
	case ActionReset:
		return "reset " + s.node.String()
	case ActionPartition:
		return "isolate " + s.node.String()
	case ActionHeal:
		return "heal " + s.node.String()
	case stepGenericSilent:
		return "generic-silent"
	case stepGenericReact:
		return "generic-react#" + strconv.Itoa(s.ix)
	}
	return ""
}

// pathNode is one step of a lazily materialized trace: the parent link
// plus the step identity, packed so a branch in flight costs one small
// arena slot instead of a formatted label and a trace-slice copy.
// Subtrees share their prefix; an exhausted branch returns its spine to
// the worker's arena free list the moment the last handle on it is
// released.
type pathNode struct {
	parent *pathNode
	msg    *sm.Msg // message identity (kinds 'm', 'd'); nil otherwise
	code   uint64  // packed kind, node, and aux (see packCode)
	// refs counts live references: one per branchTrace handle plus one
	// per child node; the node is freed when it hits zero. Atomic because
	// a stolen unit's release may race a sibling's.
	refs atomic.Int32
}

// An arena's chunks grow geometrically from pathChunkMin to pathChunkMax
// nodes (32 bytes each): a lookahead of a handful of states touches one
// 2 KB chunk, and a million-state run amortizes the append over 16 KB
// chunks that still sit inside the per-P allocation fast path.
const (
	pathChunkMin = 64
	pathChunkMax = 512
)

// pathArena is a per-worker pathNode allocator: nodes are bump-allocated
// from worker-owned chunks and reclaimed through a free list threaded
// through the parent field. Arenas are single-goroutine by construction
// (one per report shard, plus one for the pre-worker root frontier), so
// neither alloc nor the free-list push synchronizes; only the refs field
// of the nodes themselves is shared across workers. Releasing a node
// allocated by another worker is fine: it simply migrates to the
// releasing worker's free list, while its chunk stays pinned by its
// original arena until the run ends. Arenas outlive the run (Ctx.recycle):
// reset is what makes one safe to hand to the next.
type pathArena struct {
	chunks [][]pathNode
	used   int       // slots handed out of the newest chunk
	free   *pathNode // reclaimed nodes, threaded through parent
}

// alloc returns a zeroed-enough node: callers overwrite every field.
func (a *pathArena) alloc() *pathNode {
	if n := a.free; n != nil {
		a.free = n.parent
		return n
	}
	if len(a.chunks) == 0 || a.used == len(a.chunks[len(a.chunks)-1]) {
		size := pathChunkMax
		if n := len(a.chunks); n < 3 { // 64, 128, 256, then pathChunkMax each
			size = pathChunkMin << n
		}
		a.chunks = append(a.chunks, make([]pathNode, size))
		a.used = 0
	}
	n := &a.chunks[len(a.chunks)-1][a.used]
	a.used++
	return n
}

// reset readies the arena for another run. It must run after every worker
// of the run it served has returned, on all of that run's arenas before
// any is reused: the free list may thread through another arena's chunks.
// Only the first chunk is kept, and only the slots handed out of it are
// cleared (a node a panicking branch abandoned still holds its message),
// so a pooled arena costs 2 KB however large the run that grew it was.
func (a *pathArena) reset() {
	switch {
	case len(a.chunks) > 1:
		clear(a.chunks[0])
		clear(a.chunks[1:])
		a.chunks = a.chunks[:1]
	case len(a.chunks) == 1:
		clear(a.chunks[0][:a.used])
	}
	a.used, a.free = 0, nil
}

// releaseTrace releases one branchTrace handle. When the handle held the
// last reference to its node, the node is returned to arena a's free
// list and the release cascades up the parent spine. A nil arena (cold
// scheduler drop paths, which run outside any worker's arena) still
// performs the reference bookkeeping — a leaked count on a shared prefix
// would block its reclamation for the rest of the run — but leaves the
// dead nodes in their chunks.
func releaseTrace(a *pathArena, t branchTrace) {
	n := t.node
	for n != nil {
		if n.refs.Add(-1) != 0 {
			return
		}
		p := n.parent
		n.msg = nil
		if a != nil {
			n.parent = a.free
			a.free = n
		} else {
			n.parent = nil
		}
		n = p
	}
}

// packCode packs a step descriptor: kind in bits 0-7, node in bits 8-39,
// aux (interned timer-name id or generic reaction index) in bits 40-63.
func packCode(kind byte, node NodeID, aux int) uint64 {
	return uint64(kind) | uint64(uint32(int32(node)))<<8 | (uint64(aux)&0xffffff)<<40
}

func (n *pathNode) kind() byte     { return byte(n.code) }
func (n *pathNode) target() NodeID { return NodeID(int32(uint32(n.code >> 8))) }
func (n *pathNode) aux() int       { return int(n.code >> 40 & 0xffffff) }

// nameTable interns timer names for the exploration runs of one Ctx, so a
// pathNode carries a small integer instead of a string header. The published
// version is immutable and read lock-free; interning a new name (rare —
// protocols use a handful of static timer names) copies it under the
// mutex and republishes.
type nameTable struct {
	mu sync.Mutex
	v  atomic.Pointer[nameTableVersion]
}

type nameTableVersion struct {
	ids   map[string]int
	names []string
}

// id returns the dense id of name, interning it on first sight.
func (t *nameTable) id(name string) int {
	if v := t.v.Load(); v != nil {
		if id, ok := v.ids[name]; ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.v.Load()
	if v != nil {
		if id, ok := v.ids[name]; ok {
			return id
		}
	}
	nv := &nameTableVersion{ids: make(map[string]int, 8)}
	if v != nil {
		for k, id := range v.ids {
			nv.ids[k] = id
		}
		nv.names = append(append(make([]string, 0, len(v.names)+1), v.names...), name)
	} else {
		nv.names = []string{name}
	}
	nv.ids[name] = len(nv.names) - 1
	t.v.Store(nv)
	return nv.ids[name]
}

// name resolves an id interned by a previous call.
func (t *nameTable) name(id int) string { return t.v.Load().names[id] }

// trim forgets every name once more than keep are interned. The table
// outlives the run with its Ctx — ids mean nothing outside a run, and a
// protocol's handful of static timer names then interns once per process —
// but a service that builds timer names as it goes must not grow it
// forever.
func (t *nameTable) trim(keep int) {
	if v := t.v.Load(); v != nil && len(v.names) > keep {
		t.v.Store(nil)
	}
}

// branchTrace is the trace handle an in-flight branch carries: the tip
// of its path spine. The zero value is the empty trace.
type branchTrace struct {
	node *pathNode
}

// extendTrace appends one step to a branch trace without mutating the
// parent's representation (sibling branches extend the same prefix).
// The returned value is a new handle the caller owns and must release
// (releaseTrace) once neither it nor a frontier unit carries it. The
// node comes from arena a, the calling worker's own.
func (ctx *Ctx) extendTrace(a *pathArena, t branchTrace, s step) branchTrace {
	aux := s.ix
	if s.kind == ActionTimer {
		aux = ctx.names.id(s.name)
	}
	n := a.alloc()
	n.parent, n.msg, n.code = t.node, s.msg, packCode(s.kind, s.node, aux)
	n.refs.Store(1)
	if t.node != nil {
		t.node.refs.Add(1)
	}
	return branchTrace{node: n}
}

// materializeTrace reconstructs the human-readable trace of a branch.
// Called only when a recorded violation actually needs the trace. This
// is also the arena's witness promotion: the violating spine is copied
// out into owned strings at record time, so recycled arena nodes can
// never alias a recorded trace no matter when the branch's handles are
// released.
func (ctx *Ctx) materializeTrace(t branchTrace) []string {
	n := 0
	for p := t.node; p != nil; p = p.parent {
		n++
	}
	out := make([]string, n)
	for p := t.node; p != nil; p = p.parent {
		n--
		s := step{kind: p.kind(), msg: p.msg, node: p.target(), ix: p.aux()}
		if s.kind == ActionTimer {
			s.name = ctx.names.name(p.aux())
		}
		out[n] = s.label()
	}
	return out
}
