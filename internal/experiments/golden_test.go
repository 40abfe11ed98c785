package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden artifact files from the current implementation")

// TestGoldenArtifacts asserts that every experiment's rendered artifact is
// byte-identical to the committed golden copy. The goldens were generated
// from the pre-optimization (container/heap, full-sweep) runner, so this
// test is the proof that the timing-wheel event loop, dense node tables,
// dirty-set collection, and running experiments in parallel changed
// nothing observable.
//
// Regenerate with: go test ./internal/experiments -run TestGoldenArtifacts -update
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take too long for -short")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r := registry[id]()
			path := filepath.Join("testdata", "golden", r.ID+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(r.Artifact), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: missing golden (run with -update to create): %v", r.ID, err)
			}
			if string(want) != r.Artifact {
				t.Errorf("%s: artifact diverged from golden %s\n--- golden ---\n%s\n--- got ---\n%s",
					r.ID, path, want, r.Artifact)
			}
		})
	}
}
