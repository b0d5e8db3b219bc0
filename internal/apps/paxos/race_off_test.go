//go:build !race

package paxos

// raceEnabled mirrors race_on_test.go for ordinary builds.
const raceEnabled = false
