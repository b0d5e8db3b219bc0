//go:build !race

package crystalchoice

// raceEnabled mirrors race_on_test.go for ordinary builds.
const raceEnabled = false
