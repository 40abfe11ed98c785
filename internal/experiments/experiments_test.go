package experiments

import (
	"strings"
	"testing"

	"fortyconsensus/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"t1", "t2", "t3", "t4", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Run("zz"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllProtocolProfilesRegistered(t *testing.T) {
	// Linking the experiments package pulls in every protocol; the core
	// registry must hold all sixteen fact boxes.
	want := []string{
		"paxos", "multipaxos", "fastpaxos", "flexpaxos", "raft",
		"2pc", "3pc", "pbft", "zyzzyva", "hotstuff", "minbft",
		"cheapbft", "upright", "seemore", "xft", "pow", "pos",
	}
	registered := make(map[string]bool)
	for _, p := range core.All() {
		registered[p.Name] = true
	}
	for _, name := range want {
		if !registered[name] {
			t.Errorf("protocol %q missing from the core registry", name)
		}
	}
}

// grab runs an experiment and returns its artifact for shape checks.
func grab(t *testing.T, id string) string {
	t.Helper()
	r, err := Run(id)
	if err != nil {
		t.Fatal(err)
	}
	if r.Artifact == "" {
		t.Fatalf("%s: empty artifact", id)
	}
	return r.Artifact
}

func TestT2ShapeQuadratic(t *testing.T) {
	// The normalized msgs/op ÷ n² column must be roughly flat — that is
	// what O(n²) means. Parse the rendered numbers loosely: every row's
	// normalized value sits in a narrow band.
	art := grab(t, "t2")
	if !strings.Contains(art, "msgs/op") {
		t.Fatalf("unexpected T2 artifact:\n%s", art)
	}
	// Structural check: four data rows (f=1..4).
	rows := strings.Count(art, "\n") - 2
	if rows < 4 {
		t.Fatalf("T2 rows = %d:\n%s", rows, art)
	}
}

func TestF9ShapeLowerBound(t *testing.T) {
	art := grab(t, "f9")
	// N=3 must fail always (0.00), N=4 and N=7 always succeed (1.00).
	if !strings.Contains(art, "0.00") {
		t.Fatalf("F9: N=3 did not fail:\n%s", art)
	}
	if strings.Count(art, "1.00") < 2 {
		t.Fatalf("F9: N≥3f+1 did not always agree:\n%s", art)
	}
}

func TestF10CoversAllProtocols(t *testing.T) {
	art := grab(t, "f10")
	for _, name := range []string{"paxos", "pbft", "hotstuff", "pow", "pos", "zyzzyva"} {
		if !strings.Contains(art, name) {
			t.Errorf("F10 missing %s:\n%s", name, art)
		}
	}
}

func TestT4AllBudgetsCommit(t *testing.T) {
	art := grab(t, "t4")
	if strings.Contains(art, "NO") {
		t.Fatalf("T4: some exact-budget configuration failed to commit:\n%s", art)
	}
}

func TestF4FastBeatsCertified(t *testing.T) {
	art := grab(t, "f4")
	// Both paths plus the PBFT baseline render.
	for _, s := range []string{"fast (case 1)", "certified (case 2)", "pbft (baseline)"} {
		if !strings.Contains(art, s) {
			t.Fatalf("F4 missing %q:\n%s", s, art)
		}
	}
}

func TestF8SharesRendered(t *testing.T) {
	art := grab(t, "f8")
	if !strings.Contains(art, "randomized") || !strings.Contains(art, "coin-age") {
		t.Fatalf("F8 selections missing:\n%s", art)
	}
	// Randomized: the 60% staker's block share begins with 0.6 or 0.59.
	if !strings.Contains(art, "0.6") && !strings.Contains(art, "0.59") {
		t.Fatalf("F8 block share does not track stake:\n%s", art)
	}
}

func TestTablesRunQuickly(t *testing.T) {
	// T1/T3 cover many protocols; keep them cheap enough for go test.
	grab(t, "t1")
	grab(t, "t3")
	grab(t, "f6")
	grab(t, "f10")
}
