// Fixture: the sanctioned write shapes — hook first, hooks themselves,
// timer lists through setTimer, and blessed manual-ownership functions.
package cowwrite

func setOwned(w *World, i int, v int) {
	w.ownSlots()
	w.slots[i].svc, w.slots[i].svcOwned = v, true
}

func armTimer(w *World, i int, name string) {
	w.setTimer(i, name, true)
}

func crash(w *World, i int) {
	w.ownSlots()
	w.slots[i].down = true
	w.setTimer(i, "tick", false)
}

// setTimer is the one writer of a slot's timer list and its owned bit,
// in place or into a copy.
func (w *World) setTimer(i int, name string, on bool) {
	if w.slots[i].timersOwned {
		copy(w.slots[i].timers[1:], w.slots[i].timers)
		w.slots[i].timers[0] = name
		return
	}
	w.ownSlots()
	w.slots[i].timers, w.slots[i].timersOwned = append([]string{name}, w.slots[i].timers...), true
}

func partition(w *World, a, b NodeID) {
	w.ownPartitions()
	w.partitioned[[2]NodeID{a, b}] = true
	delete(w.partitioned, [2]NodeID{b, a})
}

// Hooks themselves materialize the private copy and are exempt.
func (w *World) ownSnapshots() {
	w.slots = append([]nodeSlot(nil), w.slots...)
}

// Blessed manual ownership: the destination shell is private by
// construction, so sharing containers into it is the point.
//
//crystalvet:cowwrite fixture clone: the destination has no sharers yet
func fill(c *World, src *World) {
	c.slots = src.slots
	c.Inflight = src.Inflight
}

// Blessed teardown: a dead world's slots are released, not mutated.
//
//crystalvet:cowwrite fixture teardown: the world is dead and unshared
func release(w *World) {
	clear(w.slots)
	w.slots = nil
}
