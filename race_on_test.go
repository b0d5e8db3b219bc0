//go:build race

package crystalchoice

// raceEnabled reports whether the race detector is active: it drops
// sync.Pool operations, so allocation pins that rely on the explorer's
// free lists skip themselves under it (as internal/explore's do).
const raceEnabled = true
