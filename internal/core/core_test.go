package core

import (
	"strings"
	"testing"
)

func sampleProfile(name string) Profile {
	return Profile{
		Name:         name,
		Synchrony:    PartiallySynchronous,
		Failure:      Crash,
		Strategy:     Pessimistic,
		Awareness:    KnownParticipants,
		NodesFor:     func(f int) int { return 2*f + 1 },
		NodesFormula: "2f+1",
		QuorumFor:    func(f int) int { return f + 1 },
		CommitPhases: 2,
		Complexity:   Linear,
		Decomposition: []Phase{
			LeaderElection, ValueDiscovery, FTAgreement, Decision,
		},
	}
}

func TestRegisterAndLookup(t *testing.T) {
	Register(sampleProfile("test-proto-a"))
	found := false
	for _, p := range All() {
		if p.Name == "test-proto-a" {
			found = true
		}
		if p.Name == "nope" {
			t.Fatal("phantom profile")
		}
	}
	if !found {
		t.Fatal("All() missing registered profile")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(sampleProfile("test-proto-dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(sampleProfile("test-proto-dup"))
}

func TestRegisterIncompletePanics(t *testing.T) {
	p := sampleProfile("test-proto-bad")
	p.NodesFor = nil
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete profile did not panic")
		}
	}()
	Register(p)
}

func TestAspectStrings(t *testing.T) {
	cases := map[string]string{
		Synchronous.String():          "synchronous",
		Asynchronous.String():         "asynchronous",
		PartiallySynchronous.String(): "partially-synchronous",
		Crash.String():                "crash",
		Byzantine.String():            "byzantine",
		Hybrid.String():               "hybrid",
		Pessimistic.String():          "pessimistic",
		Optimistic.String():           "optimistic",
		KnownParticipants.String():    "known",
		UnknownParticipants.String():  "unknown",
		Linear.String():               "O(n)",
		Quadratic.String():            "O(n²)",
		Cubic.String():                "O(n³)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}

func TestPhasesString(t *testing.T) {
	p := sampleProfile("x1")
	if p.PhasesString() != "2" {
		t.Fatalf("plain phases = %q", p.PhasesString())
	}
	p.AltPhases = 1 // "1 or 2", lower first
	if p.PhasesString() != "1 or 2" {
		t.Fatalf("alt phases = %q", p.PhasesString())
	}
	p.CommitPhases, p.AltPhases = 1, 3
	if p.PhasesString() != "1 or 3" {
		t.Fatalf("alt phases = %q", p.PhasesString())
	}
	p.AltPhases = p.CommitPhases
	if p.PhasesString() != "1" {
		t.Fatalf("equal alt = %q", p.PhasesString())
	}
}

func TestDecompositionString(t *testing.T) {
	p := sampleProfile("x2")
	s := p.DecompositionString()
	for _, part := range []string{"leader-election", "value-discovery", "fault-tolerant-agreement", "decision"} {
		if !strings.Contains(s, part) {
			t.Fatalf("decomposition %q missing %q", s, part)
		}
	}
}

func TestAllRegisteredProtocolsHaveSaneProfiles(t *testing.T) {
	// Every profile registered by protocol packages (this test binary
	// links only core, so only test profiles are present here; the
	// cross-package check lives in the experiments tests). Still, verify
	// invariants on whatever is registered.
	for _, p := range All() {
		if p.NodesFor(1) < p.QuorumFor(1) {
			t.Errorf("%s: quorum exceeds cluster", p.Name)
		}
		if p.CommitPhases <= 0 {
			t.Errorf("%s: nonpositive phases", p.Name)
		}
		if len(p.Decomposition) == 0 {
			t.Errorf("%s: empty decomposition", p.Name)
		}
	}
}
