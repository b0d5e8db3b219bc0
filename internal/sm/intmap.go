package sm

import (
	"math/bits"
	"sync/atomic"
)

// IntMap is a persistent map from int to V for service state that grows
// with deployment age (an instance log, a per-command table): Clone is
// O(1), the first write after a fork copies one root-to-leaf path, and a
// map nobody has forked is mutated in place. All visits keys in
// ascending order, so digests and reports need no sort.
//
// It is a radix trie over the key's bits whose height grows with the
// largest key stored (negative keys take the full 14 levels). Leaves hold
// 8 values, indexed by the key's low 3 bits, and branches are 32-way:
// a leaf is the unit a write after a fork copies, so it is kept narrow,
// and a branch costs one pointer per slot, so it is kept wide. Every
// node carries a shared mark; a marked node is never written again, an
// unmarked one is reachable from exactly one IntMap. Clone marks the root
// and hands out the same pointer; a write that meets a marked node copies
// it and marks its children before descending. The mark is the only thing
// ever written to a node another IntMap can reach, and it only goes from
// false to true, so any number of goroutines may Clone and read one
// IntMap that nobody writes while each mutates its own clone — the
// contract Service.Clone is held to (DESIGN.md, "Service fork contract").
//
// The zero value is an empty map. An IntMap is copied only by Clone: a
// plain struct copy leaves two maps that both believe they own the nodes.
// Storing a V makes a shallow copy, so V must not hold pointers, maps or
// slices it later writes through.
type IntMap[V any] struct {
	root  *trieNode[V]
	shift uint // bit offset of the root's index; 0 when the root is a leaf
	n     int
}

const (
	leafBits  = 3
	leafWidth = 1 << leafBits
	leafMask  = leafWidth - 1
	trieBits  = 5
	trieWidth = 1 << trieBits
	trieMask  = trieWidth - 1
	// trieTopShift is the root's shift once keys need all 64 bits: the
	// leaf's 3 bits and 12 branch levels of 5 below it leave the top
	// level the sign bit alone.
	trieTopShift = 63
)

// A level at shift s indexes the key's bits from s up to reach(s); the
// level above it sits at reach(s) and the level below at down(s). A
// leaf sits at shift 0.
func reach(shift uint) uint {
	if shift == 0 {
		return leafBits
	}
	return shift + trieBits // 68 at the top level, where u>>reach(s) is 0 for every key
}

func down(shift uint) uint {
	if shift == leafBits {
		return 0
	}
	return shift - trieBits
}

// trieNode is a branch (kids set) or a leaf (vals set). The array lives
// in the same allocation as the node (newBranch, newLeaf).
type trieNode[V any] struct {
	shared atomic.Bool
	used   uint8 // leaf: bitmap of occupied slots
	kids   *[trieWidth]*trieNode[V]
	vals   *[leafWidth]V
}

func newBranch[V any]() *trieNode[V] {
	b := new(struct {
		trieNode[V]
		arr [trieWidth]*trieNode[V]
	})
	b.kids = &b.arr
	return &b.trieNode
}

func newLeaf[V any]() *trieNode[V] {
	l := new(struct {
		trieNode[V]
		arr [leafWidth]V
	})
	l.vals = &l.arr
	return &l.trieNode
}

// markShared is the idempotent store of the fork contract. It loads first
// so that concurrent Clones of one map do not bounce the cache line.
func (n *trieNode[V]) markShared() {
	if !n.shared.Load() {
		n.shared.Store(true)
	}
}

// owned returns n if no other map can reach it, else an unshared copy
// whose children are marked: they are now reachable from both.
func (n *trieNode[V]) owned() *trieNode[V] {
	if !n.shared.Load() {
		return n
	}
	if n.vals != nil {
		c := newLeaf[V]()
		*c.vals = *n.vals
		c.used = n.used
		return c
	}
	c := newBranch[V]()
	*c.kids = *n.kids
	for _, k := range c.kids {
		if k != nil {
			k.markShared()
		}
	}
	return c
}

// Len returns the number of keys.
func (m *IntMap[V]) Len() int { return m.n }

// Clone returns a snapshot of m that shares all of its nodes. It writes
// nothing to m but the root's shared mark.
func (m *IntMap[V]) Clone() IntMap[V] {
	if m.root != nil {
		m.root.markShared()
	}
	return *m
}

// Get returns the value stored under k.
func (m *IntMap[V]) Get(k int) (v V, ok bool) {
	u := uint64(k)
	n := m.root
	if n == nil || u>>reach(m.shift) != 0 {
		return v, false
	}
	for s := m.shift; s > 0; s = down(s) {
		if n = n.kids[(u>>s)&trieMask]; n == nil {
			return v, false
		}
	}
	i := u & leafMask
	if n.used&(1<<i) == 0 {
		return v, false
	}
	return n.vals[i], true
}

// Put stores v under k.
func (m *IntMap[V]) Put(k int, v V) {
	u := uint64(k)
	if m.root == nil {
		m.root = newLeaf[V]()
	}
	for u>>reach(m.shift) != 0 { // grow until the root covers k
		b := newBranch[V]()
		b.kids[0] = m.root
		m.root = b
		m.shift = reach(m.shift)
	}
	m.root = m.root.owned()
	n := m.root
	for s := m.shift; s > 0; s = down(s) {
		i := (u >> s) & trieMask
		c := n.kids[i]
		switch {
		case c != nil:
			c = c.owned()
		case s == leafBits:
			c = newLeaf[V]()
		default:
			c = newBranch[V]()
		}
		n.kids[i] = c
		n = c
	}
	i := u & leafMask
	if n.used&(1<<i) == 0 {
		n.used |= 1 << i
		m.n++
	}
	n.vals[i] = v
}

// All calls fn for every entry in ascending key order until fn returns
// false; it is shaped for `for k, v := range m.All`.
func (m *IntMap[V]) All(fn func(k int, v V) bool) {
	if m.root != nil {
		m.root.walk(m.shift, 0, fn)
	}
}

// Diff calls fn, in ascending key order until it returns false, for every
// entry of m that old may not hold with the same value: each key m stores
// that old lacks or maps to something else is visited with its value in m,
// and so — a leaf being the unit of sharing — are the up to 7 entries in
// the same leaf. Subtrees the two maps share by pointer are skipped, so
// when m descends from a Clone of old, or both from Clones of one
// ancestor, the cost follows the paths written since the fork and not
// Len; a pointer-shared node is frozen by its mark, which is what makes
// skipping it sound. Unrelated maps degrade to All. Keys only old holds
// are not reported: there is no Delete to produce one inside a lineage.
// old may be nil. Like All, Diff writes nothing, so frozen maps may be
// diffed from several goroutines at once.
func (m *IntMap[V]) Diff(old *IntMap[V], fn func(k int, v V) bool) {
	switch {
	case m.root == nil:
	case old == nil || old.root == nil || old.shift > m.shift:
		m.All(fn)
	default:
		m.root.diff(old.root, old.shift, m.shift, 0, fn)
	}
}

// slots returns how many of a node's slots keys can reach and the slot
// its in-order visit starts from. A root at trieTopShift indexes by the
// sign bit alone, and its slot 1 holds the negative keys, which sort
// first.
func slots(shift uint) (width, first int) {
	if shift == trieTopShift {
		return 2, 1
	}
	return trieWidth, 0
}

// walk visits the subtree under n, whose keys share prefix, in key order.
func (n *trieNode[V]) walk(shift uint, prefix uint64, fn func(k int, v V) bool) bool {
	if n.vals != nil {
		for used := n.used; used != 0; used &= used - 1 {
			i := bits.TrailingZeros8(used)
			if !fn(int(prefix|uint64(i)), n.vals[i]) {
				return false
			}
		}
		return true
	}
	width, first := slots(shift)
	for j := 0; j < width; j++ {
		i := uint64(j+first) & uint64(width-1)
		if c := n.kids[i]; c != nil && !c.walk(down(shift), prefix|i<<shift, fn) {
			return false
		}
	}
	return true
}

// diff is walk restricted to what is not shared with the old map's node o,
// which sits at oshift. A root that grew keeps the old root under slot 0
// of each level it added, so while n's level is above o's, slot 0 is
// compared against o itself and every other slot is new.
func (n *trieNode[V]) diff(o *trieNode[V], oshift, shift uint, prefix uint64, fn func(k int, v V) bool) bool {
	if n == o {
		return true
	}
	if o == nil || n.vals != nil {
		return n.walk(shift, prefix, fn)
	}
	width, first := slots(shift)
	for j := 0; j < width; j++ {
		i := uint64(j+first) & uint64(width-1)
		c := n.kids[i]
		if c == nil {
			continue
		}
		var oc *trieNode[V]
		below := oshift // the level oc sits at
		switch {
		case shift == oshift:
			oc, below = o.kids[i], down(shift)
		case i == 0:
			oc = o
		}
		if !c.diff(oc, below, down(shift), prefix|i<<shift, fn) {
			return false
		}
	}
	return true
}
