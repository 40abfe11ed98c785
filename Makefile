# Standard-library-only Go module; every target is offline.
GO ?= go

# The packages whose event loops and experiment harness run goroutines;
# test-race covers them specifically so the race detector's cost stays
# proportionate. explore's campaign worker pool and the shard stack it
# drives joined the list when campaigns went parallel; live is the
# real-time runtime (TCP transport, mutex-serialized module turns,
# client).
RACE_PKGS := ./internal/runner ./internal/simnet ./internal/experiments ./internal/explore ./internal/shard/... ./internal/live ./internal/snapshot

# The sharded-KV stack gated explicitly in ci: the cross-shard 2PC
# tests and the explore campaign regression are this repo's tier-1
# atomic-commitment evidence.
SHARD_PKGS := ./internal/shard/... ./internal/explore ./internal/workload

# Everything `make bench` measures: the simulation hot path plus the
# protocol hot paths the allocation discipline tracks (raft append,
# multipaxos write and phase-1 answer by log length, shard 2PC commit,
# explore episodes and campaign scaling), live.Node's cost per event, the
# smr executor's cost per decision, lone or batched, and the kvstore's
# cost per applied command.
BENCH_PKGS := ./internal/runner ./internal/chaincrypto ./internal/pow ./internal/raft ./internal/multipaxos ./internal/shard ./internal/explore ./internal/live ./internal/smr ./internal/kvstore

.PHONY: all build test test-race bench bench-pairs bench-pair golden lint explore examples fuzz ci cover serve-smoke soak loc

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Static analysis: go vet plus the repo's own determinism-contract
# multichecker — nine analyzers (nodeterm, determtaint, valueown,
# exhaustive, maporder, quorumlit, deadcode, unusedparam, unreadfield)
# over every package in the module, with per-analyzer wall-clock
# timing. Zero unsuppressed findings is a
# merge requirement; see DESIGN.md "Determinism contract". gofmt comes
# first: any file it would rewrite fails the target (testdata/ holds
# analyzer input and is left as written).
lint:
	@unformatted=$$(gofmt -l internal cmd examples *.go | grep -v /testdata/); \
	if [ -n "$$unformatted" ]; then echo "gofmt would rewrite:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/consensus-lint -time ./...

test: build lint
	$(GO) test ./...

# live.Node's single-threaded module contract rests on a mutex whose
# only dynamic check is the TestNode* hammer tests, and live.Client's
# combined request writes and its router on the TestClient* ones, so
# they run twenty times over on top of the package once.
test-race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race ./internal/live -run 'TestNode|TestTransport|TestClient' -count=20

# Bounded deterministic fault campaign: every registered protocol, a
# fixed seed window, the default crash-model fault mix. Episodes fan
# out across GOMAXPROCS workers (-workers 0) with bit-identical
# results, which is what pays for the doubled seed window. Exit 1
# means an invariant was violated and a reproducer was printed. The
# second sweep puts raft under message loss, duplication and reordering
# (the default mix has neither drop nor dup): those are the faults its
# replication flow control recovers from — a reject round trip, a stale
# or repeated answer, the heartbeat rewind. The third and fourth turn on
# membership churn (rmnode) against raft-member and multipaxos-member,
# whose compaction-bound, snapshot-install, and config-safety invariants
# gate every remove → compact → re-add → InstallSnapshot pipeline the
# generator finds. The
# last two put the trusted-counter pair under loss, duplication and a
# muted or duplicating replica: both used to break log-prefix agreement
# there, and a view change (CheapSwitch) is where they did. The last puts
# Multi-Paxos under loss: the replication core's reject round trip and
# heartbeat rewind are what heal a lost Accept. A crash-model run
# counts as ok only if every replica decided after the schedule's last
# event; ci's explore stall test runs this sweep, and Flexible Paxos's,
# and fails on a stall.
explore:
	$(GO) run ./cmd/consensus-explore -protocol all -seeds 48 -faults 4 -workers 0
	$(GO) run ./cmd/consensus-explore -protocol raft -seeds 96 -faults 5 -workers 0 -classes drop,dup,delay,crash,partition
	$(GO) run ./cmd/consensus-explore -protocol raft-member -seeds 128 -faults 3 -workers 0 -classes rmnode,crash,partition
	$(GO) run ./cmd/consensus-explore -protocol multipaxos-member -seeds 128 -faults 3 -workers 0 -classes rmnode,crash,partition
	$(GO) run ./cmd/consensus-explore -protocol minbft -seeds 600 -faults 4 -workers 0 -classes crash,partition,drop,dup,delay,byz
	$(GO) run ./cmd/consensus-explore -protocol cheapbft -seeds 600 -faults 4 -workers 0 -classes crash,partition,drop,dup,delay,byz
	$(GO) run ./cmd/consensus-explore -protocol multipaxos -seeds 300 -faults 4 -workers 0 -classes drop,dup,delay,crash,partition

# The examples sit on the protocol packages' Cluster API — tcpraft on
# internal/live over localhost TCP — and have no tests of their own:
# each checks its own result and must run to completion and exit 0.
examples:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/bank > /dev/null
	$(GO) run ./examples/byzantine > /dev/null
	$(GO) run ./examples/blockchain > /dev/null
	$(GO) run ./examples/tcpraft > /dev/null

# Every decoder that takes bytes from a socket or a disk has a native
# fuzz target asserting "no panic; error, or exact re-encode", seeded
# from its round-trip tests. go test runs one target per invocation, so
# each gets three seconds: enough to walk the seeds' truncations and
# single-field mutations, short enough for ci. A failure writes its
# input under the package's testdata/fuzz, which then fails plain
# `go test` until fixed.
FUZZ_TARGETS := \
	./internal/wire:FuzzReader \
	./internal/live:FuzzRaftCodec ./internal/live:FuzzMultiPaxosCodec \
	./internal/live:FuzzDecodeRequest ./internal/live:FuzzDecodeResponse ./internal/live:FuzzDecodeHello \
	./internal/kvstore:FuzzDecode ./internal/kvstore:FuzzRestore \
	./internal/smr:FuzzDecodeRequest ./internal/smr:FuzzDecodeBatch ./internal/smr:FuzzRestoreState \
	./internal/snapshot:FuzzDecode ./internal/snapshot:FuzzDecodeConfChange \
	./internal/shard:FuzzDecodeCmd ./internal/shard:FuzzStoreRestore \
	./internal/wal:FuzzReplay ./internal/raft:FuzzRestore ./internal/multipaxos:FuzzRestore \
	./internal/nemesis:FuzzDecode

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 3s || exit 1; \
	done

# Full gate: everything CI runs, in order. The golden step verifies the
# pinned experiment artifacts byte-for-byte (no -update), and the shard
# stack, the served-path campaign (live.Server and the client's router
# on the simulated fabric) and the Multi-Paxos loss sweep that fails on
# any stall run uncached so the 2PC, linearizability and liveness tests
# always fire.
# The last step is a seconds-long self-test of the pair tool, HEAD
# against the working tree for one pair: both sides must build and
# report; what the numbers say is not looked at.
ci: build lint explore examples fuzz
	$(GO) test -race ./...
	$(GO) test $(SHARD_PKGS) -count=1
	$(GO) test ./internal/live -run TestServedPathCampaign -count=1
	# The lease-safety tests, uncached: the served-path campaign cannot
	# tell a read lease with its voting rule from one without it (0
	# violations either way), and never restores a node from its
	# journal, so these are the only check that catches a lease without
	# the rule, or a restart that forgets it.
	$(GO) test ./internal/raft ./internal/multipaxos -run '^(TestLeaseHoldsAgainstACutOffCandidate|TestRestoredFollowerKeepsTheVotingRule)$$' -count=1
	$(GO) test ./internal/explore -run TestCrashModelPaxosKeepsDecidingAfterTheHeal -count=1
	$(GO) test ./internal/experiments -run TestGoldenArtifacts -count=1
	$(MAKE) serve-smoke
	$(MAKE) bench-pair BASE=HEAD PKG=./internal/kvstore RUN=. PAIRS=1

# End-to-end smoke over real processes and sockets: build the serve and
# load CLIs, run a 3-node local cluster, push a load burst through the
# client library, kill one node, push another burst, and require clean
# SIGTERM shutdowns plus a nonzero committed-op count throughout.
serve-smoke:
	./scripts/serve_smoke.sh

# A cluster serves its last minute like its first (ROADMAP item 2's
# acceptance; minutes long, so not part of ci): three consensus-serve
# processes compacting every 1024 applies under one consensus-load, on
# each backend, sampled every 10 s. Fails if the last three intervals'
# median ops/s is under 0.75 x the first interval's, a server's RSS or a
# group's snapshot grows 25% after the first interval, a group holds
# more sessions than the load has workers, or the load's
# acknowledged-vs-applied check fails.
# SOAK_SECONDS=600 is the ROADMAP's ten minutes (default 120);
# SOAK_REV=<rev> runs an older commit's CLIs for comparison.
soak:
	./scripts/soak.sh
	SOAK_BACKEND=multipaxos ./scripts/soak.sh

# Aggregate statement coverage across every package. The baseline at
# the time cover was added is recorded in README.md ("Coverage"); a
# drop below it warrants a look at what stopped being exercised.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/... ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The size figure ROADMAP.md and CHANGES.md quote: lines of tracked
# non-test Go outside the benchmark's own directory and the analyzers'
# fixtures, then the same with tests counted, so code moved into a
# _test.go file reads as moved, not deleted; then the fixtures
# (internal/lint/*/testdata/) alone, which are analyzer input, not
# program. Then the Minimal aim's three counters: the //lint:allow
# directives in tracked Go outside testdata, and the entries of
# consensus-lint's awaitingDurability and testedKnobs lists.
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v _test.go | grep -v '^cmd/servebench' | grep -v '^internal/lint/[^/]*/testdata/' | xargs cat | wc -l)"
	@echo "all-go   $$(git ls-files '*.go' | grep -v '^cmd/servebench' | grep -v '^internal/lint/[^/]*/testdata/' | xargs cat | wc -l)"
	@echo "fixtures $$(git ls-files 'internal/lint/*/testdata/*.go' | xargs cat | wc -l)"
	@echo "allows   $$(git ls-files '*.go' | grep -v /testdata/ | xargs grep -h '^[[:space:]]*//lint:allow ' | wc -l)"
	@echo "awaiting $$(sed -n '/^var awaitingDurability = /,/^}/p' cmd/consensus-lint/main.go | grep -c '^[[:space:]]*"')"
	@echo "knobs    $$(sed -n '/^var testedKnobs = /,/^}/p' cmd/consensus-lint/main.go | grep -c '^[[:space:]]*"')"

# Micro-benchmarks for the simulation and protocol hot paths (runner
# event loop, SHA256d mining substrate, PoW mining loop, raft leader
# append, shard 2PC commit, explore episodes/campaign scaling).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ $(BENCH_PKGS)

# Alternating base/change pairs of one servebench workload — what a
# performance claim in CHANGES.md quotes: cmd/servebench built from
# $(BASE) (a git archive under .bench_build/) and from the working tree,
# PAIRS pairs run alternating which side goes first, then per end-to-end
# metric each side's median [quartiles], the pairs the change won, and
# failed ops. One 10-pair table is ≈5 min; run it on an otherwise idle
# machine, on a seed not used while developing. Not part of ci.
# WORKLOAD=all runs every BENCHMARK.json workload in turn, and a
# comma-separated list the ones it names, one table each.
PAIRS ?= 10
SEED ?= 1
bench-pairs:
ifeq ($(and $(BASE),$(WORKLOAD)),)
	$(error bench-pairs needs a base and a workload: make bench-pairs BASE=HEAD~1 WORKLOAD=raft-serial|a,b|all [PAIRS=10] [SEED=1])
endif
	GO=$(GO) ./scripts/servebench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# The same for `go test -bench`: package $(PKG)'s benchmarks matching
# $(RUN), both test binaries built once (go test -c) and alternated at a
# fixed iteration count, ns/op and allocs/op per benchmark. One unpaired
# `make bench` reading on a shared host says nothing about a change
# (EXPERIMENTS.md, "What the BENCH files recorded"). BENCHTIME sizes the
# run to the benchmark: make bench-pair BASE=HEAD~1 PKG=./internal/shard
# RUN=CrossShardCommit BENCHTIME=2000x.
bench-pair:
ifeq ($(and $(BASE),$(PKG),$(RUN)),)
	$(error bench-pair needs a base, a package and a benchmark pattern: make bench-pair BASE=HEAD~1 PKG=./internal/raft RUN=Persistence [PAIRS=10] [BENCHTIME=1000x])
endif
	GO=$(GO) ./scripts/servebench_pairs.sh $(BASE) $(PKG) '$(RUN)' $(PAIRS)

# Re-record the experiment golden artifacts after an intentional
# output change. Review the diff before committing.
golden:
	$(GO) test ./internal/experiments -run TestGoldenArtifacts -update -count=1
