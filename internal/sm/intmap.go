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
	if m.root == nil {
		return
	}
	if m.shift < trieTopShift {
		m.root.walk(m.shift, 0, fn)
		return
	}
	// Root slots 8..15 hold the keys with the sign bit set: visit them first.
	for j := 0; j < 16; j++ {
		i := uint64(j+8) & 15
		if c := m.root.kids[i]; c != nil && !c.walk(m.shift-trieBits, i<<m.shift, fn) {
			return
		}
	}
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
	for i, c := range n.kids {
		if c != nil && !c.walk(shift-trieBits, prefix|uint64(i)<<shift, fn) {
			return false
		}
	}
	return true
}
