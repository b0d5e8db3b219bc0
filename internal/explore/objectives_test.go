package explore

import "testing"

func twoRelayWorld(c0, c1 int) *World {
	w := NewWorld(FirstPolicy, 1)
	w.AddNode(0, &relay{id: 0, n: 2, counter: c0})
	w.AddNode(1, &relay{id: 1, n: 2, counter: c1})
	return w
}

func counterAtMost(node NodeID, max int) Property {
	return Property{Name: "bound", Check: func(w *World) bool {
		return w.Service(node).(*relay).counter <= max
	}}
}

func counterSum() Objective {
	return ObjectiveFunc{ObjectiveName: "sum", Fn: func(w *World) float64 {
		total := 0.0
		for _, id := range w.Nodes() {
			total += float64(w.Service(id).(*relay).counter)
		}
		return total
	}}
}

func TestPropertyObjectiveCountsHolding(t *testing.T) {
	w := twoRelayWorld(5, 0)
	o := PropertyObjective(
		counterAtMost(0, 10), // holds
		counterAtMost(0, 3),  // violated
		counterAtMost(1, 0),  // holds
	)
	if got := o.Score(w); got != 2 {
		t.Fatalf("score = %v, want 2 properties holding", got)
	}
}

func TestPropertyObjectiveNilCheckCountsAsHolding(t *testing.T) {
	if got := PropertyObjective(Property{Name: "vacuous"}).Score(twoRelayWorld(0, 0)); got != 1 {
		t.Fatalf("score = %v", got)
	}
}

func TestWeighted(t *testing.T) {
	w := twoRelayWorld(2, 3)
	if got := Weighted(10, counterSum()).Score(w); got != 50 {
		t.Fatalf("score = %v, want 50", got)
	}
}

func TestSum(t *testing.T) {
	w := twoRelayWorld(2, 3)
	o := Sum(counterSum(), PropertyObjective(counterAtMost(0, 10)))
	if got := o.Score(w); got != 6 {
		t.Fatalf("score = %v, want 5+1", got)
	}
	if Sum().Score(w) != 0 {
		t.Fatal("empty sum should be 0")
	}
}

func TestLexicographicPrimaryDominates(t *testing.T) {
	// Primary: property count; secondary: counter sum (range well under
	// bound=100). A world holding the property must outscore any world
	// violating it, regardless of the secondary.
	prop := counterAtMost(0, 3)
	o := Lexicographic(PropertyObjective(prop), counterSum(), 100)
	holding := twoRelayWorld(0, 0)    // property holds, secondary 0
	violating := twoRelayWorld(50, 0) // property violated, secondary 50
	if o.Score(holding) <= o.Score(violating) {
		t.Fatalf("lexicographic order violated: %v <= %v", o.Score(holding), o.Score(violating))
	}
	// Among two holding worlds the secondary decides.
	better := twoRelayWorld(3, 9)
	if o.Score(better) <= o.Score(holding) {
		t.Fatal("secondary objective ignored among primary ties")
	}
}

func TestGuardedDisqualifies(t *testing.T) {
	o := Guarded(counterSum(), 1e6, counterAtMost(0, 3))
	ok := twoRelayWorld(1, 1)
	bad := twoRelayWorld(100, 100)
	if o.Score(ok) != 2 {
		t.Fatalf("clean world score = %v", o.Score(ok))
	}
	if o.Score(bad) > -1e5 {
		t.Fatalf("violating world not disqualified: %v", o.Score(bad))
	}
}

func TestGuardedDefaultPenalty(t *testing.T) {
	o := Guarded(counterSum(), 0, counterAtMost(0, 3))
	if o.Score(twoRelayWorld(10, 0)) > -1e11 {
		t.Fatal("default penalty not applied")
	}
}

// The paper's composition, end to end: explore with an objective built as
// "properties expected to hold in the future, then performance".
func TestPropertyObjectiveDrivesExploration(t *testing.T) {
	w := relayWorld(3, 2)
	x := NewExplorer(6)
	x.Objective = Lexicographic(
		PropertyObjective(counterAtMost(2, 0)),
		counterSum(), 100)
	r := x.Explore(w)
	// The ping chain eventually increments node 2's counter, so futures
	// both holding and violating the property are visited: the mean score
	// must sit strictly between the two bands.
	if r.MaxScore <= r.MinScore {
		t.Fatalf("no spread in scores: min %v max %v", r.MinScore, r.MaxScore)
	}
	if r.MinScore >= 200 {
		t.Fatal("violating future never visited")
	}
	if r.MaxScore < 200 {
		t.Fatal("holding future never visited")
	}
}
