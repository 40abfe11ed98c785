// Command consensus-lint is the repo's determinism-contract
// multichecker (DESIGN.md, "Determinism contract"). It loads the whole
// module, builds a package-level call graph, and runs seven analyzers:
//
//	nodeterm    no wall-clock, global randomness, env reads,
//	            goroutines or channels in protocol code (direct uses,
//	            calls or captured function values)
//	determtaint no call chain from protocol code that reaches any of
//	            the above through module-internal helpers, method
//	            values, or conservatively-resolved interface dispatch
//	valueown    types.Value ownership: no mutation after a value is
//	            published into a message or log entry, no retention of
//	            a borrowed batch slice past the handler return
//	exhaustive  switches over message-kind/phase/state enums must
//	            cover every declared constant
//	maporder    no order-sensitive effects inside range-over-map
//	quorumlit   no hand-rolled quorum arithmetic outside internal/quorum
//	deadcode    no function or method that no main, init or
//	            package-level initialiser of the module can reach, and
//	            no field of a …Config/…Options/…Params type that none
//	            of them sets, bar its withDefaults or Default… function
//
// maporder and quorumlit run over every package in the module — the
// harness and CLIs pin golden artifacts too. The four protocol-contract
// analyzers skip the harness layer (runner, simnet, experiments,
// workload, metrics, transport, kvstore, wal, nemesis, explore, cmd,
// examples and the linter itself), which legitimately runs goroutines,
// real sockets and wall-clock benchmarks. internal/quorum is exempt
// from quorumlit — it is where the arithmetic is supposed to live.
// deadcode runs over every package but the test-support ones
// (testSupport), and leaves alone the functions awaitingDurability
// names until a program calls them, and the configuration fields
// testedKnobs names until a program sets them.
//
// Findings are suppressed site-by-site with
//
//	//lint:allow <check> <reason>
//
// on the flagged line or the line above; the reason is mandatory, and
// a directive that no longer suppresses anything is itself a finding.
//
// Usage:
//
//	consensus-lint [-v] [-json] [-time] [packages]
//
// Packages are directories or ./... patterns relative to the working
// directory; the default is ./... from the module root. -json writes
// the findings as a stable, position-sorted JSON array on stdout for
// diffing and CI grepping; -time prints per-analyzer wall-clock totals
// on stderr. Exits 1 if any unsuppressed finding remains.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/lint/analysis"
	"fortyconsensus/internal/lint/deadcode"
	"fortyconsensus/internal/lint/determtaint"
	"fortyconsensus/internal/lint/exhaustive"
	"fortyconsensus/internal/lint/maporder"
	"fortyconsensus/internal/lint/nodeterm"
	"fortyconsensus/internal/lint/quorumlit"
	"fortyconsensus/internal/lint/valueown"
)

// protocolExempt names the harness layer, module-relative. The four
// protocol-contract analyzers skip packages under these prefixes.
var protocolExempt = []string{
	"cmd",
	"examples",
	"internal/lint",
	"internal/runner",
	"internal/simnet",
	"internal/experiments",
	"internal/workload",
	"internal/metrics",
	// The live runtime is the real-time harness around the protocol
	// packages: goroutines, sockets, and wall clocks are its whole job.
	// The hosted modules stay fully checked.
	"internal/live",
	"internal/kvstore",
	"internal/wal",
	"internal/nemesis",
	"internal/explore",
	// Test-support harness: the linearizability checker runs only inside
	// tests, not inside replicated state machines. internal/shard itself
	// stays checked — its Store/Coordinator are protocol code.
	"internal/shard/histcheck",
}

// testSupport names the packages only tests import. deadcode skips
// them: their functions are reached from _test.go files, which no
// program is.
var testSupport = []string{
	"internal/lint/analysistest",
	"internal/shard/histcheck",
	"internal/types/valuetest",
}

// awaitingDurability names the persistence functions a node restarted
// from disk will call, and no program calls yet. deadcode leaves them
// alone and reports each one once it becomes reachable, so the change
// that restarts nodes from disk empties this list.
var awaitingDurability = []string{
	"fortyconsensus/internal/wal.NewJournal",
	"(*fortyconsensus/internal/wal.Journal).Sync",
	"fortyconsensus/internal/raft.NewPersister",
	"(*fortyconsensus/internal/raft.Persister).Sync",
	"fortyconsensus/internal/multipaxos.NewPersister",
	"(*fortyconsensus/internal/multipaxos.Persister).Sync",
	"fortyconsensus/internal/multipaxos.packBallot",
}

// testedKnobs names the configuration fields no program sets that a
// test sweeps or turns an off-by-default behaviour on with (the test is
// named). deadcode reports each once a program sets it.
var testedKnobs = []string{
	"fortyconsensus/internal/raft.Config.HeartbeatTicks",       // TestFreshNodeCampaignsWithinTheJitter
	"fortyconsensus/internal/raft.Config.ElectionTimeoutTicks", // TestElectionTimerTakesTheBaseOnceATermIsSeen
	"fortyconsensus/internal/multipaxos.Config.HeartbeatTicks", // TestFreshNodeCampaignsWithinTheJitter
	"fortyconsensus/internal/cheapbft.Config.QuietTicks",       // switch-back: TestSwitchBackAfterQuietPeriod
	"fortyconsensus/internal/pos.Params.Reward",                // compounding: TestProportionalRewardsAreMartingale
	"fortyconsensus/internal/shard.Config.Backend",             // TestOutcomesConsistentAcrossBackends
	"fortyconsensus/internal/minbft.Config.RequestTimeout",     // TestMessageSequencePinned's "view-change" trace, at 30
}

// scopes pairs every analyzer with the package prefixes it skips.
var scopes = []struct {
	analyzer *analysis.Analyzer
	exempt   []string
}{
	{nodeterm.Analyzer, protocolExempt},
	{determtaint.Analyzer, protocolExempt},
	{valueown.Analyzer, protocolExempt},
	{exhaustive.Analyzer, protocolExempt},
	{maporder.Analyzer, nil},
	{quorumlit.Analyzer, []string{"internal/quorum"}},
	{deadcode.New(awaitingDurability, testedKnobs), testSupport},
}

// finding is one diagnostic in the stable machine-readable form the
// -json mode emits.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	verbose := flag.Bool("v", false, "list the packages checked")
	jsonOut := flag.Bool("json", false, "emit findings as a sorted JSON array on stdout")
	timing := flag.Bool("time", false, "print per-analyzer wall-clock totals on stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: consensus-lint [-v] [-json] [-time] [packages]\n\n")
		for _, s := range scopes {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", s.analyzer.Name, s.analyzer.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args(), *verbose, *jsonOut, *timing); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-lint:", err)
		os.Exit(2)
	}
}

func run(patterns []string, verbose, jsonOut, timing bool) error {
	moduleDir, modulePath, err := findModule()
	if err != nil {
		return err
	}
	if len(patterns) == 0 {
		patterns = []string{filepath.Join(moduleDir, "...")}
	}
	dirs, err := expand(patterns)
	if err != nil {
		return err
	}

	// Phase 1: load every target package (plus, via imports, every
	// module-internal dependency) so the whole-program view is
	// complete before any analyzer runs.
	loader := analysis.NewLoader(modulePath, moduleDir)
	loadStart := time.Now()
	type target struct {
		rel string
		pkg *analysis.Package
	}
	load := func(dir string) (string, *analysis.Package, error) {
		rel, err := filepath.Rel(moduleDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return "", nil, fmt.Errorf("%s is outside module %s", dir, modulePath)
		}
		rel = filepath.ToSlash(rel)
		importPath := modulePath
		if rel != "." {
			importPath = modulePath + "/" + rel
		}
		pkg, err := loader.LoadDir(dir, importPath)
		return rel, pkg, err
	}
	var targets []target
	for _, dir := range dirs {
		rel, pkg, err := load(dir)
		if err != nil {
			return err
		}
		targets = append(targets, target{rel: rel, pkg: pkg})
	}
	// deadcode judges reachability from every main of the module, so
	// the program holds the whole module whatever the targets are.
	all, err := expand([]string{filepath.Join(moduleDir, "...")})
	if err != nil {
		return err
	}
	for _, dir := range all {
		if _, _, err := load(dir); err != nil {
			return err
		}
	}
	loadElapsed := time.Since(loadStart)
	graphStart := time.Now()
	prog := analysis.NewProgram(loader)
	graphElapsed := time.Since(graphStart)

	// Phase 2: run each package's analyzer subset over the shared
	// program.
	perAnalyzer := make(map[string]time.Duration)
	var findings []finding
	for _, t := range targets {
		var analyzers []*analysis.Analyzer
		for _, s := range scopes {
			if !exempt(t.rel, s.exempt) {
				analyzers = append(analyzers, s.analyzer)
			}
		}
		if len(analyzers) == 0 {
			continue
		}
		if verbose {
			names := make([]string, len(analyzers))
			for i, a := range analyzers {
				names[i] = a.Name
			}
			fmt.Fprintf(os.Stderr, "checking %s (%s)\n", t.pkg.Path, strings.Join(names, ","))
		}
		diags, err := analysis.Run(prog, t.pkg,
			func(a *analysis.Analyzer, d time.Duration) { perAnalyzer[a.Name] += d },
			analyzers...)
		if err != nil {
			return err
		}
		for _, d := range diags {
			pos := t.pkg.Fset.Position(d.Pos)
			file := pos.Filename
			if r, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(r, "..") {
				file = filepath.ToSlash(r)
			}
			findings = append(findings, finding{
				File: file, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Category, Message: d.Message,
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if timing {
		fmt.Fprintf(os.Stderr, "load %8.2fs  (type-check module + stdlib from source)\n", loadElapsed.Seconds())
		fmt.Fprintf(os.Stderr, "graph %7.2fs  (call graph over %d packages)\n", graphElapsed.Seconds(), len(prog.Packages()))
		for _, n := range det.SortedKeys(perAnalyzer) {
			fmt.Fprintf(os.Stderr, "%-12s %6.3fs\n", n, perAnalyzer[n].Seconds())
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			return err
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "consensus-lint: %d finding(s) in %d package(s)\n", len(findings), len(targets))
		os.Exit(1)
	}
	return nil
}

// exempt reports whether module-relative path rel falls under any prefix.
func exempt(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// findModule walks up from the working directory to go.mod and returns
// the module directory and path.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if f, err := os.Open(gm); err == nil {
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if strings.HasPrefix(line, "module ") {
					return dir, strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
				}
			}
			return "", "", fmt.Errorf("%s names no module", gm)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// expand resolves directory arguments and /... wildcards into the set
// of directories that contain non-test Go sources.
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if strings.HasSuffix(pat, "...") {
			recursive = true
			base = filepath.Dir(strings.TrimSuffix(pat, "..."))
			if base == "" {
				base = "."
			}
		}
		if !recursive {
			if !hasGoSource(base) {
				return nil, fmt.Errorf("%s: no Go source files", base)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
				return filepath.SkipDir
			}
			if hasGoSource(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoSource reports whether dir directly contains a non-test Go file.
func hasGoSource(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
