// Fixture: kind constants without digestible bodies, and World writes
// without their incremental-hash maintenance.
package digestmaint

// Hasher and BodyDigester mirror the sm package's digest vocabulary; the
// analyzer resolves them from the local scope in fixtures.
type Hasher struct{}

type BodyDigester interface {
	DigestBody(h *Hasher)
}

const (
	KindGone = "gone" // want "message kind KindGone has no package-level body type Gone"
	KindPtr  = "ptr"  // want "body type Ptr implements BodyDigester only with a pointer receiver"
	KindBad  = "bad"  // want "body type Bad does not implement BodyDigester"
)

type Ptr struct{ N int }

func (p *Ptr) DigestBody(h *Hasher) {}

type Bad struct{ N int }

type worldDigest struct {
	inflightSum uint64
	partSum     uint64
}

type nodeSlot struct {
	svc      int
	timers   []string
	down     bool
	hash     uint64
	svcOwned bool
}

type World struct {
	slots       []nodeSlot
	Inflight    []int
	partitioned map[int]bool
	dig         worldDigest
}

func (w *World) markDigestDirty(i int) {}

func (w *World) Set(i, v int) {
	w.slots[i].svc = v // want "digest-contributing write to w.slots without markDigestDirty"
}

func (w *World) Crash(i int) {
	w.slots[i].down = true // want "digest-contributing write to w.slots without markDigestDirty"
}

func (w *World) Arm(i int) {
	w.slots[i].timers = append(w.slots[i].timers, "tick") // want "digest-contributing write to w.slots without markDigestDirty"
}

func (w *World) Rename(i int) {
	w.slots[i].timers[0] = "tock" // want "digest-contributing write to w.slots without markDigestDirty"
}

func (w *World) Shift(i int) {
	copy(w.slots[i].timers[1:], w.slots[i].timers) // want "digest-contributing write to w.slots without markDigestDirty"
}

func (w *World) Uncut(a int) {
	delete(w.partitioned, a) // want "digest-contributing write to w.partitioned without partSum"
}

func (w *World) Wipe(i int) {
	w.slots[i] = nodeSlot{} // want "digest-contributing write to w.slots without markDigestDirty"
}

func (w *World) Push(m int) {
	w.Inflight = append(w.Inflight, m) // want "digest-contributing write to w.Inflight without inflightSum"
}

func (w *World) Cut(a int) {
	w.partitioned[a] = true // want "digest-contributing write to w.partitioned without partSum"
}
