// Fixture: unguarded writes to shared World containers.
package cowwrite

func setService(w *World, i int, v int) {
	w.slots[i].svc = v // want "write to shared World container w.slots without a preceding ownSlots/ownTimers call"
}

func (w *World) crash(i int) {
	w.slots[i].down = true // want "without a preceding ownSlots/ownTimers call"
}

func replaceSlot(w *World, i int) {
	w.slots[i] = nodeSlot{} // want "without a preceding ownSlots/ownTimers call"
}

func clearTimer(w *World, i int) {
	delete(w.slots[i].timers, "tick") // want "without a preceding ownSlots/ownTimers call"
}

func wipe(w *World) {
	clear(w.slots) // want "without a preceding ownSlots/ownTimers call"
}

func enqueue(w *World, m int) {
	w.Inflight = append(w.Inflight, m) // want "without a preceding ownInflight call"
}

// Claiming after the write is too late: the shared container was already
// mutated.
func hookAfter(w *World, i int, v int) {
	w.slots[i].svc = v // want "without a preceding ownSlots/ownTimers call"
	w.ownSlots()
}

// ownService claims no slot: a self-cloning service leaves them shared.
func afterService(w *World, i int) {
	w.ownService(i)
	w.slots[i].svcOwned = true // want "without a preceding ownSlots/ownTimers call"
}

// The hook must be called on the receiver being written.
func wrongReceiver(a, b *World, i int) {
	a.ownSlots()
	b.slots[i].svc = 0 // want "write to shared World container b.slots"
}
