// Command randtree reproduces the paper's Section-4 case study: 31
// participants build a random overlay tree on an Internet-like network in
// three setups (Baseline, Choice-Random, Choice-CrystalBall); then a
// subtree holding about half of the nodes fails and rejoins. The tool
// prints the maximum tree depth after the join phase and after recovery —
// the paper reported 6/6/6 and 10/10/9.
package main

import (
	"flag"
	"fmt"
	"os"

	"crystalchoice/internal/apps/randtree"
)

func main() {
	n := flag.Int("n", 31, "number of participants")
	seeds := flag.Int("seeds", 5, "number of seeds to average over")
	seed0 := flag.Int64("seed", 1, "first seed")
	flag.Parse()

	if *n < 3 || *seeds < 1 {
		fmt.Fprintln(os.Stderr, "randtree: need -n >= 3 and -seeds >= 1")
		os.Exit(2)
	}

	fmt.Printf("Section 4 case study: %d nodes, %d seed(s)\n", *n, *seeds)
	fmt.Printf("%-22s %12s %12s %10s\n", "setup", "join depth", "rejoin depth", "rejoined")
	for _, setup := range randtree.Setups {
		var join, rejoin, joined float64
		for s := 0; s < *seeds; s++ {
			r := randtree.RunSection4(randtree.ExperimentConfig{N: *n, Seed: *seed0 + int64(s), Setup: setup})
			join += float64(r.JoinDepth)
			rejoin += float64(r.RejoinDepth)
			joined += float64(r.RejoinJoined)
		}
		k := float64(*seeds)
		fmt.Printf("%-22s %12.1f %12.1f %7.0f/%d\n", setup, join/k, rejoin/k, joined/k, *n)
	}
	fmt.Println("\npaper (31 nodes, ModelNet): join 6/6/6 (optimal 5); rejoin 10/10/9")
}
