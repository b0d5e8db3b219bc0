// Fixture: covered kinds and maintained writes produce no diagnostics.
package digestmaint

const KindPing = "ping"

// Ping implements BodyDigester with a value receiver, so bodies sent by
// value hash incrementally.
type Ping struct{ Seq uint64 }

func (p Ping) DigestBody(h *Hasher) {}

// NotAKind lacks the Kind prefix and is exempt from coverage.
const NotAKind = "x"

func (w *World) SetMaintained(i, v int) {
	w.markDigestDirty(i)
	w.slots[i].svc = v
	w.slots[i].timers = append(w.slots[i].timers, "tick")
	copy(w.slots[i].timers[1:], w.slots[i].timers)
}

// Ownership marks and the component hash itself are bookkeeping, not
// digest input.
func (w *World) bookkeep(i int) {
	w.slots[i].svcOwned = true
	w.slots[i].hash = 0
}

func (w *World) PushMaintained(m int) {
	w.dig.inflightSum += uint64(m)
	w.Inflight = append(w.Inflight, m)
}

func (w *World) CutMaintained(a int) {
	w.dig.partSum ^= uint64(a)
	w.partitioned[a] = true
}

// A whole-digest reset counts as maintenance for every container.
func (w *World) Reset() {
	w.dig = worldDigest{}
	w.slots[0].svc = 0
	w.Inflight = append(w.Inflight, 0)
}

// Whole-field assignment moves ownership, not content.
func (w *World) swap(s []nodeSlot) {
	w.slots = s
}

// Non-append in-flight assignments follow their own protocol (ownership
// copies, compaction) and are out of this rule's scope.
func (w *World) trim() {
	w.Inflight = w.Inflight[:0]
}
