// Fixture: unguarded writes to shared World containers, and timer-list
// writes outside setTimer.
package cowwrite

func setService(w *World, i int, v int) {
	w.slots[i].svc = v // want "write to shared World container w.slots without a preceding ownSlots call"
}

func (w *World) crash(i int) {
	w.slots[i].down = true // want "without a preceding ownSlots call"
}

func replaceSlot(w *World, i int) {
	w.slots[i] = nodeSlot{} // want "without a preceding ownSlots call"
}

func wipe(w *World) {
	clear(w.slots) // want "without a preceding ownSlots call"
}

// A slot's timer list is setTimer's alone: a claimed slot slice still
// shares the list with the world it was copied from.
func clearTimers(w *World, i int) {
	w.ownSlots()
	w.slots[i].timers = nil // want "write to slot timer list w.slots.*timers outside setTimer"
}

func renameTimer(w *World, i int) {
	w.slots[i].timers[0] = "tock" // want "write to slot timer list w.slots.*timers outside setTimer"
}

func shiftTimers(w *World, i int) {
	w.ownSlots()
	copy(w.slots[i].timers[1:], w.slots[i].timers) // want "write to slot timer list w.slots.*timers outside setTimer"
}

func (w *World) claimTimers(i int) {
	w.ownSlots()
	w.slots[i].timersOwned = true // want "write to slot timer list w.slots.*timersOwned outside setTimer"
}

func enqueue(w *World, m int) {
	w.Inflight = append(w.Inflight, m) // want "without a preceding ownInflight call"
}

// Claiming after the write is too late: the shared container was already
// mutated.
func hookAfter(w *World, i int, v int) {
	w.slots[i].svc = v // want "without a preceding ownSlots call"
	w.ownSlots()
}

// ownService claims no slot: a self-cloning service leaves them shared.
func afterService(w *World, i int) {
	w.ownService(i)
	w.slots[i].svcOwned = true // want "without a preceding ownSlots call"
}

// The hook must be called on the receiver being written.
func wrongReceiver(a, b *World, i int) {
	a.ownSlots()
	b.slots[i].svc = 0 // want "write to shared World container b.slots"
}
