package main

import (
	"os"
	"path/filepath"
	"testing"
)

// protocolPackages pins the set of packages the protocol-contract
// analyzers must keep covering. Adding a prefix to protocolExempt that
// swallows any of these is a lint-scope regression, not a refactor.
var protocolPackages = []string{
	"internal/chaincrypto",
	"internal/cheapbft",
	"internal/commit",
	"internal/core",
	"internal/det",
	"internal/fastpaxos",
	"internal/hotstuff",
	"internal/minbft",
	"internal/multipaxos",
	"internal/paxos",
	"internal/pbft",
	"internal/pos",
	"internal/pow",
	"internal/quorum",
	"internal/raft",
	"internal/readindex",
	"internal/seemore",
	"internal/shard",
	"internal/smr",
	"internal/snapshot",
	"internal/trustedhw",
	"internal/types",
	"internal/wire",
	"internal/xft",
	"internal/zyzzyva",
}

// mustBeExempt pins the harness layer: real-time and IO code that is
// allowed wall clocks, goroutines, and map iteration.
var mustBeExempt = []string{
	"cmd/consensus-serve",
	"cmd/consensus-lint",
	"examples/tcpraft",
	"internal/live",
	"internal/runner",
	"internal/simnet",
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// TestProtocolScopeDidNotShrink fails if any pinned protocol package
// has become exempt from the protocol-contract analyzers.
func TestProtocolScopeDidNotShrink(t *testing.T) {
	for _, pkg := range protocolPackages {
		if exempt(pkg, protocolExempt) {
			t.Errorf("%s is exempt from the protocol-contract analyzers; protocol scope shrank", pkg)
		}
	}
}

// TestHarnessLayerIsExempt pins the other direction: the harness
// packages must stay out of the protocol analyzers' scope, so a scope
// widening that would drown the build in harness findings is caught
// here rather than in CI noise.
func TestHarnessLayerIsExempt(t *testing.T) {
	for _, pkg := range mustBeExempt {
		if !exempt(pkg, protocolExempt) {
			t.Errorf("%s is not exempt; the harness layer must not be under protocol-contract analysis", pkg)
		}
	}
}

// TestScopeListsExistOnDisk keeps both pinned lists and the exempt
// prefixes honest: every entry must name a real directory, so renames
// can't silently turn scope pins into dead strings.
func TestScopeListsExistOnDisk(t *testing.T) {
	root := moduleRoot(t)
	check := func(list []string, label string) {
		for _, rel := range list {
			fi, err := os.Stat(filepath.Join(root, filepath.FromSlash(rel)))
			if err != nil || !fi.IsDir() {
				t.Errorf("%s entry %q does not name a directory in the module", label, rel)
			}
		}
	}
	check(protocolPackages, "protocolPackages")
	check(mustBeExempt, "mustBeExempt")
	check(protocolExempt, "protocolExempt")
}
