package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
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
	"internal/replog",
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

// testSupportPinned is exactly the set of packages deadcode skips:
// packages only _test.go files import. A package added here stops being
// checked for code no program reaches, so it is a decision of its own.
var testSupportPinned = []string{
	"internal/lint/analysistest",
	"internal/shard/histcheck",
	"internal/types/valuetest",
}

// awaitingDurabilityAllowed bounds awaitingDurability: the persistence
// functions crash-restart from disk will call, the Sync side and the
// Restore side. The list may lose entries, as their callers land, and
// never gain one.
var awaitingDurabilityAllowed = []string{
	// Sync side.
	"fortyconsensus/internal/wal.NewJournal",
	"(*fortyconsensus/internal/wal.Journal).Sync",
	"(*fortyconsensus/internal/wal.Log).snapshot",
	"(*fortyconsensus/internal/wal.Log).replace",
	"(fortyconsensus/internal/wal.osFS).rename",
	"fortyconsensus/internal/replog.NewPersister",
	"(*fortyconsensus/internal/replog.Persister).Sync",
	"(*fortyconsensus/internal/replog.synced).journal",
	"(*fortyconsensus/internal/raft.Node).Journal",
	"(*fortyconsensus/internal/multipaxos.Node).Journal",
	"(*fortyconsensus/internal/replog.Core[M]).Mapping", // both backends' mappings, moved into the core
	// Restore side.
	"(*fortyconsensus/internal/replog.Persister).Restore",
	"(*fortyconsensus/internal/wal.Journal).Restore",
	"(*fortyconsensus/internal/wal.Log).Replay",
	"(*fortyconsensus/internal/wal.Log).LoadSnapshot",
	"fortyconsensus/internal/wal.decodeSnapshotFile",
}

// testedKnobsAllowed bounds testedKnobs: configuration fields a test
// sweeps, or turns an off-by-default behaviour on with, and no program
// sets. The list may lose entries and never gain one.
var testedKnobsAllowed = []string{
	"fortyconsensus/internal/replog.ElectorConfig.HeartbeatTicks", // raft's and multipaxos', folded into the one elector config
	"fortyconsensus/internal/cheapbft.Config.QuietTicks",
	"fortyconsensus/internal/pos.Params.Reward",
	"fortyconsensus/internal/shard.Config.Backend",
	"fortyconsensus/internal/minbft.Config.RequestTimeout",
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
	check(testSupport, "testSupport")
}

// TestDeadcodeExemptionsPinned pins deadcode's three declared lists:
// the test-support packages exactly, the awaiting list to a subset of
// the nineteen persistence functions, and the tested knobs to a subset of
// the seven fields. It also keeps deadcode among the analyzers the
// linter runs (and -time lists).
func TestDeadcodeExemptionsPinned(t *testing.T) {
	if strings.Join(testSupport, " ") != strings.Join(testSupportPinned, " ") {
		t.Errorf("testSupport = %q, pinned %q", testSupport, testSupportPinned)
	}
	shrinkOnly := func(list, allowedList []string, label string) {
		allowed := make(map[string]bool)
		for _, name := range allowedList {
			allowed[name] = true
		}
		for _, name := range list {
			if !allowed[name] {
				t.Errorf("%s gained %s; the list may only shrink", label, name)
			}
			allowed[name] = false
		}
	}
	shrinkOnly(awaitingDurability, awaitingDurabilityAllowed, "awaitingDurability")
	shrinkOnly(testedKnobs, testedKnobsAllowed, "testedKnobs")
	ran := false
	for _, s := range scopes {
		if s.analyzer.Name == "deadcode" {
			ran = true
			if strings.Join(s.exempt, " ") != strings.Join(testSupportPinned, " ") {
				t.Errorf("deadcode skips %q, want exactly the test-support packages", s.exempt)
			}
		}
	}
	if !ran {
		t.Error("consensus-lint does not run deadcode")
	}
}

// allowDirectivesPinned is how many //lint:allow directives the module
// carries outside testdata. Each one waives a finding on a written
// argument, so a new one is a decision of its own: the change that adds
// it raises this number, in plain view.
const allowDirectivesPinned = 4

// TestAllowDirectivesPinned fails when the module's Go files — as the go
// tool walks them: no testdata, no dot or underscore directories — carry
// more //lint:allow directives than pinned, and lists them all.
func TestAllowDirectivesPinned(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//lint:allow") {
					pos := fset.Position(c.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					found = append(found, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, c.Text))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > allowDirectivesPinned {
		t.Errorf("%d //lint:allow directives, pinned at %d: remove the new one, or raise the pin in the change that argues for it\n%s",
			len(found), allowDirectivesPinned, strings.Join(found, "\n"))
	} else if len(found) < allowDirectivesPinned {
		t.Logf("%d //lint:allow directives, pinned at %d: lower the pin", len(found), allowDirectivesPinned)
	}
}
