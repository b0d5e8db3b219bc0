package explore

// Visited-state deduplication. Every expanded state consults the run's
// shared seen set, which makes it the hottest cross-worker structure in
// the engine. Two implementations, chosen by how many workers run:
//
//   - plainSeen: an unsynchronized map, used when one worker runs (the
//     scheduler's inline loop) so single-threaded runs stay
//     byte-for-byte deterministic and pay no atomic traffic.
//   - lockFreeSeen: the parallel set — an open-addressing digest table
//     with CAS inserts, grown by epoch handoff (below). EXPERIMENTS.md
//     E16 measured it against the mutex-sharded map it replaced.
//
// lockFreeSeen design. Slots are a power-of-two array of uint64 digests,
// zero meaning empty (a digest of zero is remapped to a fixed nonzero
// constant). visit linear-probes from the digest's home slot: a matching
// slot means seen; an empty slot is claimed with a single
// CompareAndSwap, whose loser re-reads the slot and either discovers its
// own digest (someone else visited first — exact, no double-explore) or
// keeps probing past the foreign one. There are no deletes, so probe
// chains never break.
//
// Growth is an epoch handoff, not a migration: when a probe chain
// exceeds seenMaxProbe, the grower (serialized by a mutex that visits
// never touch) publishes a double-sized table whose old pointer links
// the retired epoch, and retries. Lookups that find an empty slot in the
// current epoch walk the old chain before claiming, so membership stays
// exact across growth: an insert that landed in a retired table — a
// goroutine may CAS into the old epoch right after the handoff — is
// still found by every later lookup. The one concession is a narrow
// cross-epoch race (an old-chain lookup can miss an insert that lands in
// the retired table after the lookup passed it) that can at worst
// double-explore a state; it cannot lose one. Explore sizes the initial
// table to twice the state budget (inserts are bounded by expansions),
// so the load factor stays under one half and growth is a safety valve
// rather than a steady-state event.
//
// Memory layout: the slot array is shared read-mostly cache traffic;
// the mutable header word (the table pointer) is padded away from the
// growth mutex so a grower's lock traffic never false-shares with the
// readers' pointer loads.

import (
	"sync"
	"sync/atomic"
)

// seenSet records visited state digests. visit reports true when the
// digest was already recorded — the caller then prunes the duplicate
// subtree.
type seenSet interface {
	visit(d uint64) bool
}

// plainSeen is the one-worker run's unsynchronized map.
type plainSeen map[uint64]bool

func (s plainSeen) visit(d uint64) bool {
	if s[d] {
		return true
	}
	s[d] = true
	return false
}

// seenMaxProbe bounds a linear-probe chain before the table grows. At
// the ≤50% load factor Explore sizes for, chains this long are
// vanishingly rare with well-mixed digests.
const seenMaxProbe = 64

// seenMinSize and seenMaxSize clamp the initial table (slots are 8 bytes
// each, so the ceiling costs 32 MiB only when a multi-million-state
// budget asks for it).
const (
	seenMinSize = 1 << 12
	seenMaxSize = 1 << 22
)

// lockFreeSeen is the parallel engine's visited set. See the package
// comment above for the design.
type lockFreeSeen struct {
	cur atomic.Pointer[seenTable]
	// Pad the hot read-side pointer away from the growth mutex.
	_  [56]byte
	mu sync.Mutex // serializes growers; visit never takes it
}

type seenTable struct {
	mask  uint64
	old   *seenTable // retired epoch; lookups fall back during handoff
	slots []atomic.Uint64
}

func newSeenTable(n int, old *seenTable) *seenTable {
	return &seenTable{mask: uint64(n - 1), old: old, slots: make([]atomic.Uint64, n)}
}

// newLockFreeSeen sizes the table for a run expected to insert at most
// `budget` digests (one per expanded state).
func newLockFreeSeen(budget int) *lockFreeSeen {
	n := seenMinSize
	for n < 2*budget && n < seenMaxSize {
		n <<= 1
	}
	s := &lockFreeSeen{}
	s.cur.Store(newSeenTable(n, nil))
	return s
}

// seenKey remaps the one digest value the table cannot store (zero marks
// an empty slot).
func seenKey(d uint64) uint64 {
	if d == 0 {
		return 0x9e3779b97f4a7c15
	}
	return d
}

// contains probes one retired epoch (and its ancestors) read-only.
func (t *seenTable) contains(h uint64) bool {
	i := h & t.mask
	for p := 0; p <= seenMaxProbe; p++ {
		v := t.slots[i].Load()
		if v == h {
			return true
		}
		if v == 0 {
			break
		}
		i = (i + 1) & t.mask
	}
	if t.old != nil {
		return t.old.contains(h)
	}
	return false
}

// contains reports membership without inserting — test instrumentation;
// the engine itself only ever needs visit.
func (s *lockFreeSeen) contains(d uint64) bool {
	return s.cur.Load().contains(seenKey(d))
}

func (s *lockFreeSeen) visit(d uint64) bool {
	h := seenKey(d)
	for {
		t := s.cur.Load()
		i := h & t.mask
		for p := 0; p <= seenMaxProbe; p++ {
			v := t.slots[i].Load()
			if v == h {
				return true
			}
			if v == 0 {
				// Not in this epoch up to here; the retired chain decides
				// between "first visit" and "seen before the handoff".
				if t.old != nil && t.old.contains(h) {
					return true
				}
				if t.slots[i].CompareAndSwap(0, h) {
					return false
				}
				// Lost the slot: re-read to learn to whom.
				if t.slots[i].Load() == h {
					return true // a concurrent visit of the same state won
				}
				// A different digest claimed it; probe past.
			}
			i = (i + 1) & t.mask
		}
		s.grow(t)
	}
}

// grow publishes a double-sized epoch linking the exhausted one, unless
// another worker already has.
func (s *lockFreeSeen) grow(from *seenTable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Load() != from {
		return
	}
	n := 2 * (int(from.mask) + 1)
	s.cur.Store(newSeenTable(n, from))
}
