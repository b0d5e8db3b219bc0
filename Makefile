# Developer entry points. CI runs the same steps (.github/workflows/ci.yml).

BENCHTIME ?= 1s
# Pinned staticcheck release: lint runs the same checker everywhere
# instead of whatever @latest resolves to on the day.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: test race bench bench-check bench-alloc profile vet gofmt lint lint-tools crystalvet staticcheck

vet:
	go vet ./...

# gofmt fails on any Go file gofmt would rewrite, listing them.
# benchmark/out holds the benchmark's build and module caches, not source.
gofmt:
	@files=$$(find . -path ./benchmark/out -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# lint is the full static gate CI runs verbatim: go vet, gofmt, the
# crystalvet contract analyzers (cmd/crystalvet, see DESIGN.md §7), and
# staticcheck.
lint: vet gofmt crystalvet staticcheck

crystalvet:
	go run ./cmd/crystalvet ./...

# staticcheck degrades to a notice when the binary is absent: the offline
# dev container cannot `go install` it, but CI always runs `make
# lint-tools` first, so there it is present and blocking.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (run 'make lint-tools' to install $(STATICCHECK_VERSION))" ; \
	fi

# lint-tools installs the pinned external linters (network required).
lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

test: bench-check
	go build ./... && go test ./...

# bench-check vets and tests the repo benchmark, which is its own module
# (benchmark/go.mod) and therefore invisible to `./...`: without it an
# internal/... rename that breaks the benchmark build lands silently.
# GO_TELEMETRY_CHILD=2 keeps cmd/go from forking its telemetry sidecar.
bench-check:
	cd benchmark && GO_TELEMETRY_CHILD=2 go vet . && GO_TELEMETRY_CHILD=2 go test .

race:
	go test -race ./...

bench:
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) .

# bench-alloc runs the hot-path allocation-regression tests, which pin
# the per-state allocation budget of the non-violating expansion path
# (chain and BFS; faults off and on) via testing.AllocsPerRun.
# -count=2: the second run executes with warm free-lists, so a threshold
# that only holds on cold pools fails here instead of flaking in CI.
# TestForkWriteAllocsIndependentOfSize is the cost-shape gate of the world
# fork itself: with a warm free-list a fork, its first service and timer
# writes, its digest and its release allocate nothing at 15 and 255 nodes
# (one slot copy into the recycled shell's spare, whatever the size).
# TestIntMapForkWriteBytes is the cost-shape gate of the trie under the
# paxos logs: Clone+Put of a 104-byte value copies one node per level and
# at most 2 KB at 64, 4096 and 100000 keys (8-entry leaves).
# TestForkCostIndependentOfLogSize is the cost-shape gate of the paxos
# service fork: Clone+Digest allocate the same at 64 and at 4096 decided
# instances, and the first write after a fork copies one trie path.
# TestProposalBytesDense is the paxos proposal log's retained-size gate:
# keyed by the proposer's own slot, a proposal costs <= 160 B at one
# replica of five after 4096 proposals (about 120; keyed by instance,
# about 560). TestPredictiveDispatchWritesInPlace is the gate of the
# pre-event snapshot: a warm Predictive replica, which declares its choice
# sites, takes no clone for an Accept or a Learn (the dispatch allocates
# what it does under a resolver that never clones, so no trie path is
# copied) and exactly one for a Submit. TestSteeringCheckAllocs is the
# gate of one steering check: on a warm paxos node a safe check allocates
# its two service clones and its handlers' objects, and nothing of the
# engine's (the Report is the steering explorer's own, lent back; the
# world shells, their containers and the retired lookahead root come back
# from the free lists; a fault-free chain digests no world).
# TestRetiredRootsPinNothing (internal/core) is its pool-safety twin: while
# retired lookahead roots are recycled, a node's current root, the
# model's standing world and an unsafe check's witness world keep their
# digests. TestScheduleStepAllocs is the simulator queue's gate: a
# steady-state Schedule+Step allocates exactly one object, the timer;
# TestPostStepAllocs its handle-free case: Post+Step of an existing event
# allocates nothing. TestDeliveryAllocs is the message path's gate: one
# liveEnv.Send, Step and OnMessage allocate exactly one object, the
# delivery record that is the transport message, the queued event and
# the service's sm.Msg at once.
# TestForkCostIndependentOfUpdates is the same gate for the gossip peer:
# Clone+Digest and Clone+Delta cost the same at 64 and 4096 held updates,
# and the first update learned after a fork copies the receipt log once.
# TestAgreementStepIndependentOfLogSize is the same gate for the agreement
# property's Step: one decision costs the same lookups, and no
# allocation, at either size. TestTreeStepIndependentOfSize is the same
# gate for the three randtree properties' Steps: a write to one node makes
# the same TreeView reads, and no allocation, at 15 and at 255 nodes.
# TestForkCostIndependentOfTreeSize is the randtree node's fork gate: at
# every node of a 15- and a 255-node tree, Clone allocates one object (the
# copy shares the never-written child list) and the digest none.
# TestLookaheadSteadyStateAllocs is the gate of one whole decision: a
# steering-shaped paxos lookahead allocates what its handlers allocate
# plus a fixed few objects and <= 4 KB, the same at MaxStates 128 and
# 4096 and at 64 and 4096 decided instances; the handlers' share stays
# <= 16 KB at 64 decided.
# TestStaleCheckpointResponseNotCloned is the gate of the checkpoint
# receive path: fresh, stale and same-epoch-earlier responses cost zero
# clones, the delivered state being the one the state model retains.
# TestAllocRegressionRandtreeSnapshot is the per-state budget on real
# handlers: mc_offline's 31-node randtree snapshot, breadth-first to depth
# 10 on one worker, stays under 3 allocs/state (measured 2.06). It runs
# in a process of its own: the explorer scratch a 10 000-state run leaves
# warm would lower TestLookaheadSteadyStateAllocs' first measurement,
# which that gate compares the later ones against.
bench-alloc:
	go test ./internal/explore -run 'TestAllocRegressionPerState|TestForkWriteAllocsIndependentOfSize' -count=2 -v
	go test ./internal/sm -run 'TestIntMapForkWriteBytes' -count=2 -v
	go test ./internal/sim -run 'TestScheduleStepAllocs|TestPostStepAllocs' -count=2 -v
	go test ./internal/apps/paxos -run 'TestForkCostIndependentOfLogSize|TestAgreementStepIndependentOfLogSize|TestProposalBytesDense|TestPredictiveDispatchWritesInPlace|TestSteeringCheckAllocs' -count=2 -v
	go test ./internal/apps/gossip -run 'TestForkCostIndependentOfUpdates' -count=2 -v
	go test ./internal/apps/randtree -run 'TestTreeStepIndependentOfSize|TestForkCostIndependentOfTreeSize' -count=2 -v
	go test ./internal/core -run 'TestStaleCheckpointResponseNotCloned|TestDeliveryAllocs|TestRetiredRootsPinNothing' -count=2 -v
	go test . -run 'TestLookaheadSteadyStateAllocs' -count=2 -v
	go test . -run 'TestAllocRegressionRandtreeSnapshot' -count=2 -v

# profile runs the offline model checker under the runtime/pprof
# collectors and prints the top allocation sites. mc.cpu.pprof and
# mc.mem.pprof are left behind for interactive `go tool pprof` sessions.
profile:
	go run ./cmd/mc -n 15 -depth 6 -budget 8192 -cpuprofile mc.cpu.pprof -memprofile mc.mem.pprof
	go tool pprof -top -sample_index=alloc_objects mc.mem.pprof | head -20
