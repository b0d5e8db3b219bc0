// Fixture: a miniature of the engine's copy-on-write World — shared
// container fields claimed through own* hooks before mutation, and slot
// timer lists written only by setTimer.
package cowwrite

type NodeID int

type nodeSlot struct {
	svc         int
	timers      []string
	down        bool
	svcOwned    bool
	timersOwned bool
}

type World struct {
	slots       []nodeSlot
	Inflight    []int
	partitioned map[[2]NodeID]bool
}

func (w *World) ownSlots()            {}
func (w *World) ownService(i int) int { return w.slots[i].svc }
func (w *World) ownPartitions()       {}
func (w *World) ownInflight()         {}
