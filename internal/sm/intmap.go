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
// It is a 32-way radix trie over the key's bits whose height grows with
// the largest key stored (negative keys take the full 13 levels). Every
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
	trieBits  = 5
	trieWidth = 1 << trieBits
	trieMask  = trieWidth - 1
	// trieTopShift is the root's shift once keys need all 64 bits: 12
	// levels of 5 bits below it leave the top level 4 bits, of which the
	// highest is the sign.
	trieTopShift = 60
)

// trieNode is a branch (kids set) or a leaf (vals set). The array lives
// in the same allocation as the node (newBranch, newLeaf).
type trieNode[V any] struct {
	shared atomic.Bool
	used   uint32 // leaf: bitmap of occupied slots
	kids   *[trieWidth]*trieNode[V]
	vals   *[trieWidth]V
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
		arr [trieWidth]V
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
	if n == nil || u>>(m.shift+trieBits) != 0 {
		return v, false
	}
	for s := m.shift; s > 0; s -= trieBits {
		if n = n.kids[(u>>s)&trieMask]; n == nil {
			return v, false
		}
	}
	i := u & trieMask
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
	for u>>(m.shift+trieBits) != 0 { // grow until the root covers k
		b := newBranch[V]()
		b.kids[0] = m.root
		m.root = b
		m.shift += trieBits
	}
	m.root = m.root.owned()
	n := m.root
	for s := m.shift; s > 0; s -= trieBits {
		i := (u >> s) & trieMask
		c := n.kids[i]
		switch {
		case c != nil:
			c = c.owned()
		case s == trieBits:
			c = newLeaf[V]()
		default:
			c = newBranch[V]()
		}
		n.kids[i] = c
		n = c
	}
	i := u & trieMask
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
// and so — a leaf being the unit of sharing — are the up to 31 entries in
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
		m.root.diff(old.root, m.shift-old.shift, m.shift, 0, fn)
	}
}

// slots returns how many of a node's slots keys can reach and the slot
// its in-order visit starts from. A root at trieTopShift indexes by the
// key's top four bits, and its slots 8..15 hold the keys with the sign
// bit set, which sort first.
func slots(shift uint) (width, first int) {
	if shift == trieTopShift {
		return 16, 8
	}
	return trieWidth, 0
}

// walk visits the subtree under n, whose keys share prefix, in key order.
func (n *trieNode[V]) walk(shift uint, prefix uint64, fn func(k int, v V) bool) bool {
	if n.vals != nil {
		for used := n.used; used != 0; used &= used - 1 {
			i := bits.TrailingZeros32(used)
			if !fn(int(prefix|uint64(i)), n.vals[i]) {
				return false
			}
		}
		return true
	}
	width, first := slots(shift)
	for j := 0; j < width; j++ {
		i := uint64(j+first) & uint64(width-1)
		if c := n.kids[i]; c != nil && !c.walk(shift-trieBits, prefix|i<<shift, fn) {
			return false
		}
	}
	return true
}

// diff is walk restricted to what is not shared with the old map's node o.
// above is how many bits n's level sits over o's: a root that grew keeps
// the old root under slot 0 of each level it added, so while above > 0
// slot 0 is compared against o itself and every other slot is new.
func (n *trieNode[V]) diff(o *trieNode[V], above, shift uint, prefix uint64, fn func(k int, v V) bool) bool {
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
		below := above
		switch {
		case above == 0:
			oc = o.kids[i]
		case i == 0:
			oc, below = o, above-trieBits
		}
		if !c.diff(oc, below, shift-trieBits, prefix|i<<shift, fn) {
			return false
		}
	}
	return true
}
