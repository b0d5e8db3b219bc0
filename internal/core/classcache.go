package core

import "crystalchoice/internal/sm"

// Class-keyed verdict caching (Config.LookaheadClassCache).
//
// The per-digest decision cache amortizes repeated *states*: it hits only
// when the same (choice, state digest, event) recurs, which unique-command
// workloads never produce — E18 measured 0% hits and a ~2.1 ms resolve p50
// on per-command paxos traffic. But the choice scenarios collapse to a
// handful of (choice name, arity, event kind) shapes. Class-keyed caching
// exploits that second level of structure for predictive resolution — the
// paper's §3.4 "choices based on previous similar scenarios as a fast
// alternative": a decisive prediction's winner is recorded under the
// scenario key, and the next resolution of the same scenario answers in
// cache-lookup time even though the state digest is new. Steering keeps
// no class verdicts; every steering check runs both its lookaheads.
//
// Class verdicts deliberately ignore the exact state, so they are an
// approximation. Two mechanisms bound the staleness: every topology event
// (crash, restart, partition, heal) bumps Cluster.topoEpoch and flushes
// all cached verdicts wholesale (syncCaches), and the knob is opt-in so
// exact per-digest behavior stays the default.

// classVerdict is one cached scenario resolution: the winning candidate
// of a past decisive prediction, valid while the choice arity matches.
type classVerdict struct {
	idx int
	n   int
}

// scenarioKey hashes the recurring shape of a choice resolution — name,
// arity, and triggering event kind, but *not* the state digest. Unique
// commands change the digest every time; the scenario stays the same.
func scenarioKey(c sm.Choice, ev *pendingEvent) uint64 {
	h := sm.NewHasher().WriteString(c.Name).WriteInt(int64(c.N))
	if ev != nil {
		h.WriteString(ev.label())
	}
	return h.Sum()
}

// syncCaches flushes the node's cached verdicts when the cluster topology
// changed since they were computed. The per-digest decision cache is
// flushed along with the class map: a cached "deliver to peer 2" is just
// as stale as a class verdict once peer 2 is partitioned away (the
// restart path already flushed it via Cluster.Restart; partition and heal
// land here). Invalidation is lazy — nothing is paid until the next
// interposition decision — and counted per dropped class verdict.
func (n *Node) syncCaches() {
	ce := n.cluster.topoEpoch
	if n.cacheEpoch == ce {
		return
	}
	n.cacheEpoch = ce
	n.stats.ClassInvalidations += uint64(len(n.classChoice))
	if len(n.decisionCache) > 0 {
		n.decisionCache = make(map[uint64]int)
	}
	n.classChoice = nil
}

// classChoiceLookup answers a resolution from the scenario cache.
func (n *Node) classChoiceLookup(key uint64, arity int) (int, bool) {
	v, ok := n.classChoice[key]
	if !ok || v.n != arity || v.idx >= arity {
		return 0, false
	}
	return v.idx, true
}

// recordChoiceVerdict stores a decisive prediction's winner under the
// scenario key.
func (n *Node) recordChoiceVerdict(key uint64, idx, arity int) {
	if n.classChoice == nil {
		n.classChoice = make(map[uint64]classVerdict)
	}
	n.classChoice[key] = classVerdict{idx: idx, n: arity}
}
