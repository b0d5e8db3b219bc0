//go:build race

package paxos

// raceEnabled reports whether the race detector is active. The detector
// deliberately drops sync.Pool operations to widen its schedule coverage,
// which defeats the shell free-list and inflates allocation counts; the
// tight per-state pins are meaningless under it and skip themselves.
const raceEnabled = true
