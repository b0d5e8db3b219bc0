package sm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHasherDeterministic(t *testing.T) {
	build := func() uint64 {
		return NewHasher().
			WriteInt(-7).
			WriteUint(42).
			WriteBool(true).
			WriteString("randtree").
			WriteNode(3).
			WriteNodes([]NodeID{1, 2, 3}).
			Sum()
	}
	if build() != build() {
		t.Fatal("identical writes produced different digests")
	}
}

// fnvBytes is the reference the Hasher must equal: FNV-1a 64, one byte at
// a time, over the encoding the Write methods define — an integer as its
// 8 little-endian bytes, a bool as one byte, a string as its length (an
// integer) and then its bytes.
type fnvBytes struct{ b []byte }

func (r *fnvBytes) uint(v uint64) { r.b = binary.LittleEndian.AppendUint64(r.b, v) }

func (r *fnvBytes) bool(v bool) {
	if v {
		r.b = append(r.b, 1)
	} else {
		r.b = append(r.b, 0)
	}
}

func (r *fnvBytes) string(v string) {
	r.uint(uint64(len(v)))
	r.b = append(r.b, v...)
}

func (r *fnvBytes) sum() uint64 {
	h := uint64(14695981039346656037)
	for _, c := range r.b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// TestHasherMatchesBytewiseFNV pins the significant-byte folding of
// WriteUint/WriteInt to plain FNV-1a: every byte-length boundary, the
// extremes, seeded random values, and mixed sequences with strings and
// bools hash exactly as the byte-at-a-time reference does.
func TestHasherMatchesBytewiseFNV(t *testing.T) {
	vals := []uint64{0, 1, math.MaxUint64, uint64(math.MaxInt64), 1 << 63}
	for k := 1; k < 8; k++ {
		vals = append(vals, 1<<(8*k)-1, 1<<(8*k), 1<<(8*k)+1)
	}
	ints := []int64{-1, math.MinInt64, math.MaxInt64, -256, -255}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		// Random widths, so that every significant-byte count is common.
		vals = append(vals, rng.Uint64()>>(rng.Intn(8)*8))
	}
	for _, v := range vals {
		var ref fnvBytes
		ref.uint(v)
		if got, want := NewHasher().WriteUint(v).Sum(), ref.sum(); got != want {
			t.Fatalf("WriteUint(%#x) = %#x, bytewise FNV-1a %#x", v, got, want)
		}
		if got, want := NewHasher().WriteInt(int64(v)).Sum(), ref.sum(); got != want {
			t.Fatalf("WriteInt(%d) = %#x, bytewise FNV-1a %#x", int64(v), got, want)
		}
	}
	for _, v := range ints {
		var ref fnvBytes
		ref.uint(uint64(v))
		if got, want := NewHasher().WriteInt(v).Sum(), ref.sum(); got != want {
			t.Fatalf("WriteInt(%d) = %#x, bytewise FNV-1a %#x", v, got, want)
		}
	}
	// Mixed sequences: the hasher's state carries across writes of every
	// kind exactly as the reference's does.
	strs := []string{"", "a", "px.accept", string(make([]byte, 300))}
	for i := 0; i < 2000; i++ {
		h, ref := NewHasher(), &fnvBytes{}
		for j := rng.Intn(12); j >= 0; j-- {
			switch rng.Intn(5) {
			case 0:
				v := vals[rng.Intn(len(vals))]
				h.WriteUint(v)
				ref.uint(v)
			case 1:
				v := ints[rng.Intn(len(ints))]
				h.WriteInt(v)
				ref.uint(uint64(v))
			case 2:
				v := rng.Intn(2) == 0
				h.WriteBool(v)
				ref.bool(v)
			case 3:
				v := strs[rng.Intn(len(strs))]
				h.WriteString(v)
				ref.string(v)
			default:
				v := NodeID(rng.Intn(300) - 10)
				h.WriteNode(v)
				ref.uint(uint64(v))
			}
		}
		if got, want := h.Sum(), ref.sum(); got != want {
			t.Fatalf("sequence %d: %#x, bytewise FNV-1a %#x", i, got, want)
		}
	}
}

func TestHasherSensitive(t *testing.T) {
	a := NewHasher().WriteInt(1).WriteInt(2).Sum()
	b := NewHasher().WriteInt(2).WriteInt(1).Sum()
	if a == b {
		t.Fatal("digest insensitive to write order of distinct values")
	}
	c := NewHasher().WriteString("ab").WriteString("c").Sum()
	d := NewHasher().WriteString("a").WriteString("bc").Sum()
	if c == d {
		t.Fatal("length prefixing failed: boundary-shifted strings collide")
	}
}

func TestWriteNodeSetOrderInsensitive(t *testing.T) {
	a := map[NodeID]bool{1: true, 5: true, 9: true}
	b := map[NodeID]bool{9: true, 1: true, 5: true}
	if NewHasher().WriteNodeSet(a).Sum() != NewHasher().WriteNodeSet(b).Sum() {
		t.Fatal("node-set digest depends on map iteration order")
	}
	// False entries are excluded.
	c := map[NodeID]bool{1: true, 5: true, 9: true, 11: false}
	if NewHasher().WriteNodeSet(a).Sum() != NewHasher().WriteNodeSet(c).Sum() {
		t.Fatal("false entries should not affect the digest")
	}
}

func TestWriteIntMapDeterministic(t *testing.T) {
	m := map[int]int64{3: 30, 1: 10, 2: 20}
	a := NewHasher().WriteIntMap(m).Sum()
	for i := 0; i < 20; i++ {
		if NewHasher().WriteIntMap(m).Sum() != a {
			t.Fatal("int-map digest unstable")
		}
	}
}

func TestCloneNodeSetIsDeep(t *testing.T) {
	orig := map[NodeID]bool{1: true}
	c := CloneNodeSet(orig)
	c[2] = true
	if orig[2] {
		t.Fatal("clone shares storage")
	}
}

func TestCloneNodes(t *testing.T) {
	orig := []NodeID{3, 1}
	c := CloneNodes(orig)
	c[0] = 99
	if orig[0] != 3 {
		t.Fatal("clone shares storage")
	}
}

func TestSortedNodes(t *testing.T) {
	got := SortedNodes(map[NodeID]bool{5: true, 1: true, 3: true, 4: false})
	want := []NodeID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Property: set digests are permutation-invariant; slice digests are not
// (unless the permutation is identity).
func TestSetDigestProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		set := make(map[NodeID]bool)
		for _, id := range ids {
			set[NodeID(id)] = true
		}
		// Build the same set in reverse insertion order.
		set2 := make(map[NodeID]bool)
		for i := len(ids) - 1; i >= 0; i-- {
			set2[NodeID(ids[i])] = true
		}
		return NewHasher().WriteNodeSet(set).Sum() == NewHasher().WriteNodeSet(set2).Sum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHashString(t *testing.T) {
	if HashString("join") == HashString("joinreply") {
		t.Fatal("distinct kinds collide (suspicious)")
	}
	if HashString("join") != HashString("join") {
		t.Fatal("HashString unstable")
	}
}
