// Package scenario is the declarative scenario lab: a JSON-loadable spec
// describing topology size, app and workload mix, run duration, and a
// scripted fault schedule — timed crash/restart/reset events, group
// partitions with overlapping windows, flapping partitions, and node
// churn — compiled down to the existing failure.Schedule and
// transport.Network partition APIs so live runs and explorer lookaheads
// see identical fault semantics. On top of the spec sit a seeded fuzzer
// (random valid schedules under fault budgets and quorum-safety knobs)
// and a delta-debugging shrinker that minimizes a violating schedule to a
// near-minimal event list and emits a replayable repro spec.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"crystalchoice/internal/apps/paxos"
)

// Dur is a JSON-friendly duration: it marshals as "500ms"/"2s" strings
// and accepts either a string or integer nanoseconds when decoding.
type Dur time.Duration

// D converts to time.Duration.
func (d Dur) D() time.Duration { return time.Duration(d) }

func (d Dur) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its string form.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1.5s" strings or integer nanoseconds.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string or integer nanoseconds, got %s", b)
	}
	*d = Dur(n)
	return nil
}

// Fault schedule operations. Partitions are group cuts between A and B —
// asymmetric in the sense of unequal, overlapping groups (a cut of
// {0}|{1,2} concurrent with {1}|{3}); both the live network and explorer
// worlds represent exactly this relation, which is what keeps live runs
// and lookaheads in digest parity.
const (
	OpCrash     = "crash"     // crash Nodes
	OpRestart   = "restart"   // restart Nodes (Cold = fresh state)
	OpReset     = "reset"     // crash+restart at one instant (Cold = fresh)
	OpPartition = "partition" // cut groups A | B
	OpHeal      = "heal"      // heal the A | B cut only
	OpHealAll   = "heal-all"  // remove every active cut
)

// Event is one timed fault action.
type Event struct {
	At    Dur    `json:"at"`
	Op    string `json:"op"`
	Nodes []int  `json:"nodes,omitempty"` // crash/restart/reset targets
	A     []int  `json:"a,omitempty"`     // partition/heal group
	B     []int  `json:"b,omitempty"`     // partition/heal group
	// Cold restarts/resets replace the node's state with the app's fresh
	// service (a process restart from scratch); warm keeps pre-crash state.
	Cold bool `json:"cold,omitempty"`
}

// Flap is a flapping partition: the A|B cut toggles Count times starting
// at Start, cut for half of Period and healed for the other half.
type Flap struct {
	A      []int `json:"a"`
	B      []int `json:"b"`
	Start  Dur   `json:"start"`
	Period Dur   `json:"period"`
	Count  int   `json:"count"`
}

// Churn resets one candidate node every Every between Start and End,
// cycling deterministically through Nodes (all non-root nodes when empty).
type Churn struct {
	Start Dur   `json:"start"`
	End   Dur   `json:"end"`
	Every Dur   `json:"every"`
	Cold  bool  `json:"cold,omitempty"`
	Nodes []int `json:"nodes,omitempty"`
}

// Spec declaratively describes one scripted run.
type Spec struct {
	// App selects the harness: randtree, gossip, dissem, paxos, tracker.
	App string `json:"app"`
	// Variant selects the app's sub-policy (randtree setup, gossip/dissem
	// strategy, paxos/tracker policy). Empty picks the app's non-predictive
	// default, so fuzz runs surface protocol bugs rather than mask them.
	Variant string `json:"variant,omitempty"`
	// N is the topology size in protocol nodes (tracker adds one more for
	// the tracker itself).
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
	// Duration is the run's virtual length.
	Duration Dur `json:"duration"`
	// Workload mix (zero = app default): Updates is gossip publishes or
	// paxos commands; Blocks sizes the dissem/tracker file.
	Updates int `json:"updates,omitempty"`
	Blocks  int `json:"blocks,omitempty"`
	// Steering attaches CrystalBall execution steering with the app's
	// safety properties (the paper's §3 loop) to the live run.
	Steering bool `json:"steering,omitempty"`

	// The fault schedule: explicit events plus flap and churn generators,
	// expanded into primitive events at compile time.
	Events []Event `json:"events,omitempty"`
	Flaps  []Flap  `json:"flaps,omitempty"`
	Churn  *Churn  `json:"churn,omitempty"`

	// MaxFaults caps the compiled primitive event count (0 = unlimited) —
	// the fuzzer's fault budget, enforced by Validate.
	MaxFaults int `json:"max_faults,omitempty"`
	// PreserveQuorum rejects schedules that ever take a majority of nodes
	// down at once, keeping fuzzed paxos runs inside the protocol's
	// liveness envelope.
	PreserveQuorum bool `json:"preserve_quorum,omitempty"`
	// ProbeEvery is the live property-probe period (default 50ms). Probes
	// materialize the cluster as an explorer world and check the app's
	// safety properties, catching transient violations (the orphaned-child
	// window closes when the next heartbeat check prunes) that an
	// end-of-run check would miss.
	ProbeEvery Dur `json:"probe_every,omitempty"`
}

// Apps lists the apps a spec may name.
var Apps = []string{"randtree", "gossip", "dissem", "paxos", "tracker"}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	s.fill()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return &s, nil
}

// Save writes the spec as indented JSON — the replayable repro format.
func (s *Spec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (s *Spec) fill() {
	if s.N == 0 {
		s.N = 8
	}
	if s.Duration == 0 {
		s.Duration = Dur(10 * time.Second)
	}
	if s.ProbeEvery == 0 {
		s.ProbeEvery = Dur(50 * time.Millisecond)
	}
}

// Clone deep-copies the spec so shrink candidates never alias the
// original's slices.
func (s *Spec) Clone() *Spec {
	cp := *s
	cp.Events = append([]Event(nil), s.Events...)
	for i := range cp.Events {
		cp.Events[i].Nodes = append([]int(nil), cp.Events[i].Nodes...)
		cp.Events[i].A = append([]int(nil), cp.Events[i].A...)
		cp.Events[i].B = append([]int(nil), cp.Events[i].B...)
	}
	cp.Flaps = append([]Flap(nil), s.Flaps...)
	for i := range cp.Flaps {
		cp.Flaps[i].A = append([]int(nil), cp.Flaps[i].A...)
		cp.Flaps[i].B = append([]int(nil), cp.Flaps[i].B...)
	}
	if s.Churn != nil {
		ch := *s.Churn
		ch.Nodes = append([]int(nil), s.Churn.Nodes...)
		cp.Churn = &ch
	}
	return &cp
}

// Validate checks the spec's static shape and simulates its compiled
// timeline: a known app and variant, node IDs in range, restarts only of crashed nodes, partition
// groups disjoint and nonempty, the fault budget respected, and — when
// PreserveQuorum is set — a live majority at every instant.
func (s *Spec) Validate() error {
	if variants[s.App] == nil {
		return fmt.Errorf("unknown app %q (want one of %v)", s.App, Apps)
	}
	if _, ok := variants[s.App][s.Variant]; !ok {
		return fmt.Errorf("unknown %s variant %q", s.App, s.Variant)
	}
	if s.N < 2 {
		return fmt.Errorf("n = %d: need at least 2 nodes", s.N)
	}
	if s.App == "paxos" && s.N < 3 {
		return fmt.Errorf("paxos needs n >= 3 for a meaningful quorum, got %d", s.N)
	}
	if s.App == "paxos" && s.N > paxos.MaxReplicas {
		return fmt.Errorf("paxos supports at most %d replicas, got %d", paxos.MaxReplicas, s.N)
	}
	if s.Steering && s.App == "dissem" {
		return fmt.Errorf("steering needs a safety property to steer over, and dissem defines none")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("duration must be positive, got %v", s.Duration)
	}
	if s.ProbeEvery < 0 {
		return fmt.Errorf("probe_every must be non-negative, got %v", s.ProbeEvery)
	}
	if s.MaxFaults < 0 {
		return fmt.Errorf("max_faults must be non-negative, got %d", s.MaxFaults)
	}
	events, err := s.expand()
	if err != nil {
		return err
	}
	if s.MaxFaults > 0 && len(events) > s.MaxFaults {
		return fmt.Errorf("schedule has %d primitive events, over the max_faults budget %d", len(events), s.MaxFaults)
	}
	return s.checkTimeline(events)
}

// checkTimeline replays the primitive events in time order, tracking the
// down set. events must already be sorted by At (expand guarantees it).
func (s *Spec) checkTimeline(events []Event) error {
	down := make(map[int]bool)
	quorumFloor := s.N/2 + 1 // minimum live nodes PreserveQuorum demands
	for i, ev := range events {
		if ev.At < 0 || ev.At > s.Duration {
			return fmt.Errorf("event %d (%s) at %v is outside the run [0, %v]", i, ev.Op, ev.At, s.Duration)
		}
		switch ev.Op {
		case OpCrash, OpRestart, OpReset:
			if len(ev.Nodes) == 0 {
				return fmt.Errorf("event %d (%s) names no nodes", i, ev.Op)
			}
			for _, id := range ev.Nodes {
				if id < 0 || id >= s.N {
					return fmt.Errorf("event %d (%s): node %d out of range [0, %d)", i, ev.Op, id, s.N)
				}
				switch ev.Op {
				case OpCrash:
					if down[id] {
						return fmt.Errorf("event %d: crash of node %d, already down", i, id)
					}
					down[id] = true
				case OpRestart:
					if !down[id] {
						return fmt.Errorf("event %d: restart of node %d, which is not down", i, id)
					}
					delete(down, id)
				case OpReset:
					if down[id] {
						return fmt.Errorf("event %d: reset of node %d, already down", i, id)
					}
					// A reset is down for zero virtual time: it never
					// counts against the quorum floor.
				}
			}
		case OpPartition, OpHeal:
			if err := checkGroups(i, ev); err != nil {
				return err
			}
			for _, id := range append(append([]int(nil), ev.A...), ev.B...) {
				if id < 0 || id >= s.N {
					return fmt.Errorf("event %d (%s): node %d out of range [0, %d)", i, ev.Op, id, s.N)
				}
			}
		case OpHealAll:
			// Always legal; healing nothing is a no-op.
		default:
			return fmt.Errorf("event %d: unknown op %q", i, ev.Op)
		}
		if s.PreserveQuorum && s.N-len(down) < quorumFloor {
			return fmt.Errorf("event %d (%s at %v) leaves %d of %d nodes live, below the quorum floor %d",
				i, ev.Op, ev.At, s.N-len(down), s.N, quorumFloor)
		}
	}
	return nil
}

func checkGroups(i int, ev Event) error {
	if len(ev.A) == 0 || len(ev.B) == 0 {
		return fmt.Errorf("event %d (%s): both groups must be nonempty", i, ev.Op)
	}
	seen := make(map[int]bool)
	for _, id := range ev.A {
		seen[id] = true
	}
	for _, id := range ev.B {
		if seen[id] {
			return fmt.Errorf("event %d (%s): node %d is in both groups", i, ev.Op, id)
		}
	}
	return nil
}

// expand flattens flaps and churn into primitive events and returns the
// full schedule sorted by time (stably, so same-instant events keep spec
// order). The expansion is deterministic: churn cycles through its
// candidate list in order.
func (s *Spec) expand() ([]Event, error) {
	events := append([]Event(nil), s.Events...)
	for fi, f := range s.Flaps {
		if f.Period <= 0 || f.Count <= 0 {
			return nil, fmt.Errorf("flap %d: period and count must be positive", fi)
		}
		for c := 0; c < f.Count; c++ {
			cut := f.Start + Dur(c)*f.Period
			events = append(events,
				Event{At: cut, Op: OpPartition, A: f.A, B: f.B},
				Event{At: cut + f.Period/2, Op: OpHeal, A: f.A, B: f.B})
		}
	}
	if ch := s.Churn; ch != nil {
		if ch.Every <= 0 {
			return nil, fmt.Errorf("churn: every must be positive")
		}
		if ch.End <= ch.Start {
			return nil, fmt.Errorf("churn: end must be after start")
		}
		cands := ch.Nodes
		if len(cands) == 0 {
			for i := 1; i < s.N; i++ { // spare the root/seed by default
				cands = append(cands, i)
			}
		}
		k := 0
		for at := ch.Start; at < ch.End; at += ch.Every {
			events = append(events, Event{At: at, Op: OpReset, Nodes: []int{cands[k%len(cands)]}, Cold: ch.Cold})
			k++
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// Normalize replaces the spec's flap and churn generators with their
// expanded primitive events — the form the shrinker minimizes.
func (s *Spec) Normalize() error {
	events, err := s.expand()
	if err != nil {
		return err
	}
	s.Events = events
	s.Flaps = nil
	s.Churn = nil
	return nil
}
