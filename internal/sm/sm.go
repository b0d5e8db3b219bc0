// Package sm is the distributed state-machine framework the services in
// this repository are written against — the role Mace plays in the paper.
//
// A Service is a deterministic event-driven state machine: it reacts to
// message deliveries, timer firings, and connection failures, and performs
// effects (sending, timer management, random draws, exposed choices) only
// through its Env. Because every effect is mediated by Env, the same
// Service code runs unmodified in three places:
//
//   - the live simulated deployment (internal/core runtime),
//   - CrystalBall's lookahead worlds (internal/explore), and
//   - checkpoint clones shipped between nodes (internal/checkpoint).
//
// Services must be cloneable (a snapshot: a deep copy, or a copy-on-write
// fork over IntMap) and digestible (stable state hash) so the model
// checker can snapshot, fork, and deduplicate them.
package sm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"crystalchoice/internal/netmodel"
)

// NodeID aliases netmodel.NodeID.
type NodeID = netmodel.NodeID

// Msg is a protocol message as seen by a service.
type Msg struct {
	Src, Dst NodeID
	Kind     string
	Body     any
	Size     int
	// Unreliable marks datagram messages, which the network may drop;
	// the explorer can branch on their loss (Explorer.DropBranches).
	Unreliable bool

	// digest memoizes the message's content hash. Messages are immutable
	// once in flight, so the hash is computed at most once per message
	// instead of once per state visit per world. The memo must be filled
	// while the message is still owned by a single goroutine (the world
	// that injects or absorbs it does so eagerly); afterwards Digest is
	// read-only and safe to call from concurrent exploration workers.
	// digested sits beside Unreliable, so the two flags share one word.
	digested bool
	digest   uint64
}

func (m *Msg) String() string {
	return fmt.Sprintf("%v->%v %s", m.Src, m.Dst, m.Kind)
}

// BodyDigester lets message bodies provide a stable digest. Bodies that do
// not implement it are hashed via their fmt representation, which is stable
// for struct and scalar bodies (avoid maps and pointers in message bodies).
type BodyDigester interface {
	DigestBody(h *Hasher)
}

// ReflectionFallback, when non-nil, is invoked for every message whose
// body is hashed through the fmt reflection fallback instead of
// BodyDigester. It is a test hook for enforcing digester coverage; leave
// nil in production paths.
var ReflectionFallback func(m *Msg)

// Digest returns the message's content hash, computing and memoizing it on
// first use. See MsgDigestRecompute for the cache-free variant.
func (m *Msg) Digest() uint64 {
	if m.digested {
		return m.digest
	}
	m.digest = MsgDigestRecompute(m)
	m.digested = true
	return m.digest
}

// MsgDigestRecompute hashes a message from scratch, bypassing (and not
// filling) the memo. The full-recompute digest ablation and equivalence
// tests use it to check memoized digests against ground truth.
func MsgDigestRecompute(m *Msg) uint64 {
	h := GetHasher()
	h.WriteNode(m.Src).WriteNode(m.Dst).WriteString(m.Kind).WriteBool(m.Unreliable)
	if d, ok := m.Body.(BodyDigester); ok {
		d.DigestBody(h)
	} else if m.Body != nil {
		if ReflectionFallback != nil {
			ReflectionFallback(m)
		}
		h.WriteString(fmt.Sprintf("%v", m.Body))
	}
	d := h.Sum()
	PutHasher(h)
	return d
}

// Choice is an exposed decision with N alternatives, to be resolved by the
// runtime (paper §3.1). Label is optional and used for tracing.
type Choice struct {
	Name  string
	N     int
	Label func(i int) string
}

// Env is the effect interface a service performs all interaction through.
type Env interface {
	// ID returns this node's identity.
	ID() NodeID
	// Now returns elapsed virtual time since the start of the run.
	Now() time.Duration
	// Send transmits over the reliable connection-oriented service.
	Send(dst NodeID, kind string, body any, size int)
	// SendDatagram transmits a best-effort datagram.
	SendDatagram(dst NodeID, kind string, body any, size int)
	// SetTimer (re)schedules the named timer to fire after d.
	SetTimer(name string, d time.Duration)
	// CancelTimer cancels the named timer if pending.
	CancelTimer(name string)
	// Rand returns a deterministic per-node RNG.
	Rand() *rand.Rand
	// Choose resolves an exposed choice, returning an index in [0, c.N).
	// How it is resolved — randomly, by a fixed policy, or by CrystalBall
	// prediction — is the runtime's business, not the service's.
	Choose(c Choice) int
	// Logf records a trace line (may be a no-op).
	Logf(format string, args ...any)
}

// Service is a distributed protocol node.
type Service interface {
	// Init is invoked once when the node starts (or restarts).
	Init(env Env)
	// OnMessage handles a delivered message.
	OnMessage(env Env, m *Msg)
	// OnTimer handles a fired timer.
	OnTimer(env Env, name string)
	// Clone returns a snapshot of the service state. The receiver may be
	// mutated right afterwards and may be cloned from several goroutines
	// while nobody writes it, so all Clone may write to it are idempotent
	// atomic shared marks (DESIGN.md §2.4.1; IntMap).
	Clone() Service
	// Digest returns a stable hash of the service state, used by the model
	// checker to deduplicate explored states.
	Digest() uint64
}

// ConnAware is implemented by services that react to reliable-connection
// failures (e.g., RandTree's parent-death detection after execution
// steering breaks a connection).
type ConnAware interface {
	OnConnDown(env Env, peer NodeID)
}

// Neighborly is implemented by services that can enumerate their current
// protocol neighborhood (e.g. parent + children in an overlay tree). The
// runtime checkpoints with these neighbors; services that do not implement
// it are checkpointed against the full membership (global knowledge).
type Neighborly interface {
	Neighbors() []NodeID
}

// ChoiceSites is implemented by services that declare which of their
// handlers can reach Env.Choose. ExposesChoice is asked for every message
// (msgKind set, timer empty) and timer (timer set, msgKind empty) the
// runtime dispatches; it must answer true for every event whose handler
// may call Choose, and must not depend on the service's state. A runtime
// whose resolver replays the triggering event from the pre-event state
// (CrystalBall) snapshots the service only before a declared event; a
// Choose from an event declared choice-free is a contract breach, and the
// runtime panics naming the event. Services that do not implement it are
// snapshotted before every handler.
type ChoiceSites interface {
	ExposesChoice(msgKind, timer string) bool
}

// Named is implemented by services that want a protocol name in traces.
type Named interface {
	ProtocolName() string
}

// Hasher builds stable state digests. It is a thin wrapper over FNV-1a with
// helpers that force deterministic encoding of common state shapes.
type Hasher struct{ h uint64 }

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

// NewHasher returns a Hasher with the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// Reset returns the hasher to the FNV-1a offset basis.
func (s *Hasher) Reset() *Hasher {
	s.h = fnvOffset
	return s
}

// hasherPool recycles Hasher state for hot digest paths: a hasher handed to
// an interface method (DigestBody) escapes to the heap, so exploration-rate
// digesting would otherwise allocate once per message and node component.
var hasherPool = sync.Pool{New: func() any { return new(Hasher) }}

// GetHasher returns a reset pooled hasher. Pair with PutHasher.
func GetHasher() *Hasher { return hasherPool.Get().(*Hasher).Reset() }

// PutHasher recycles a hasher obtained from GetHasher. The caller must not
// use h afterwards.
func PutHasher(h *Hasher) { hasherPool.Put(h) }

// Mix64 finalizes a 64-bit hash with the SplitMix64 avalanche function.
// Digests combined commutatively (e.g. summed into a multiset hash) must be
// finalized first: raw FNV-1a values are too structured for addition to
// preserve their collision resistance.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *Hasher) mix(b byte) {
	s.h ^= uint64(b)
	s.h *= 1099511628211
}

// WriteInt folds a signed integer into the digest.
func (s *Hasher) WriteInt(v int64) *Hasher {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		s.mix(byte(u >> (8 * i)))
	}
	return s
}

// WriteUint folds an unsigned integer into the digest.
func (s *Hasher) WriteUint(v uint64) *Hasher {
	for i := 0; i < 8; i++ {
		s.mix(byte(v >> (8 * i)))
	}
	return s
}

// WriteBool folds a boolean into the digest.
func (s *Hasher) WriteBool(v bool) *Hasher {
	if v {
		s.mix(1)
	} else {
		s.mix(0)
	}
	return s
}

// WriteString folds a length-prefixed string into the digest.
func (s *Hasher) WriteString(v string) *Hasher {
	s.WriteInt(int64(len(v)))
	for i := 0; i < len(v); i++ {
		s.mix(v[i])
	}
	return s
}

// WriteNode folds a node ID into the digest.
func (s *Hasher) WriteNode(id NodeID) *Hasher { return s.WriteInt(int64(id)) }

// WriteNodePair folds an unordered node pair into the digest, normalizing
// the order so (a,b) and (b,a) hash identically — the shape of a partition
// relation entry.
func (s *Hasher) WriteNodePair(a, b NodeID) *Hasher {
	if a > b {
		a, b = b, a
	}
	return s.WriteNode(a).WriteNode(b)
}

// WriteNodes folds a node slice, order-sensitively.
func (s *Hasher) WriteNodes(ids []NodeID) *Hasher {
	s.WriteInt(int64(len(ids)))
	for _, id := range ids {
		s.WriteNode(id)
	}
	return s
}

// WriteNodeSet folds a node set (map keys) order-insensitively by sorting.
func (s *Hasher) WriteNodeSet(set map[NodeID]bool) *Hasher {
	ids := make([]NodeID, 0, len(set))
	for id, ok := range set {
		if ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return s.WriteNodes(ids)
}

// WriteIntMap folds a map[int]int64 deterministically.
func (s *Hasher) WriteIntMap(m map[int]int64) *Hasher {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	s.WriteInt(int64(len(keys)))
	for _, k := range keys {
		s.WriteInt(int64(k))
		s.WriteInt(m[k])
	}
	return s
}

// WriteBytes folds a byte slice into the digest.
func (s *Hasher) WriteBytes(b []byte) *Hasher {
	s.WriteInt(int64(len(b)))
	for _, c := range b {
		s.mix(c)
	}
	return s
}

// Sum returns the digest value.
func (s *Hasher) Sum() uint64 { return s.h }

// HashString is a convenience for hashing a single string (e.g., a message
// kind) outside a Hasher chain.
func HashString(v string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v))
	return h.Sum64()
}

// CloneNodeSet deep-copies a node set.
func CloneNodeSet(m map[NodeID]bool) map[NodeID]bool {
	c := make(map[NodeID]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// CloneNodes copies a node slice.
func CloneNodes(s []NodeID) []NodeID {
	c := make([]NodeID, len(s))
	copy(c, s)
	return c
}

// SortedNodes returns the set's members in ascending order.
func SortedNodes(m map[NodeID]bool) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id, ok := range m {
		if ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}
