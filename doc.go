// Package crystalchoice is a Go reproduction of "Simplifying Distributed
// System Development" (Yabandeh, Vasić, Kostić, Kuncak — HotOS XII, 2009):
// a programming model in which distributed services expose their choices
// and objectives, and a CrystalBall-style predictive runtime resolves the
// choices by exploring possible futures from a model of the system.
//
// The library lives under internal/: the discrete-event simulator (sim),
// network model (netmodel), transport, the Mace-like state-machine
// framework (sm), checkpoint collection, the consequence-prediction model
// checker (explore — a pluggable engine with swappable search strategies,
// a parallel work scheduler, and copy-on-write world forking), the
// predictive system model (model), the iPlane-like information plane
// (iplane), the explicit-choice runtime (core) — the paper's contribution
// — and five protocols built on it (apps/randtree, apps/gossip,
// apps/dissem, apps/paxos, apps/tracker).
//
// The engine keeps one implementation of each mechanism — copy-on-write
// forks recycled through a free-list, an incrementally maintained state
// digest, arena-allocated lazy traces, work-stealing deques over a
// lock-free seen set. Its engine knobs are plain Explorer fields that
// offline checking sets; the runtime's live lookaheads are one inline
// ChainDFS each, and core.Config carries only the resolver's fault budget.
// EXPERIMENTS.md (E11, E12, E14–E16) records the measurements that
// retired each alternative and the commit at which they can be re-run.
//
// The engine's semantic contracts (deterministic replay, copy-on-write
// world ownership, incremental digest maintenance, pooled-handle release)
// are enforced at build time by cmd/crystalvet, a vet-style multichecker
// over the analyzer suite in internal/analysis; `make lint` runs it next
// to go vet and staticcheck, and DESIGN.md §7 documents the contracts and
// their in-source //crystalvet:<analyzer> escape hatches.
//
// The benchmarks in bench_test.go regenerate every quantitative result in
// the paper; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-vs-paper numbers.
package crystalchoice
