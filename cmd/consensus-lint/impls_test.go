package main

import (
	"go/types"
	"path/filepath"
	"slices"
	"testing"

	"fortyconsensus/internal/lint/analysis"
)

// TestGenericInterfaceImplsPinned pins what a call through the module's
// generic interfaces reaches: runner.Node[M]'s Step every simulated
// replica's (servebench's idle module too), its Drain the one
// types.Outbox every module embeds (and the idle module's), and
// live.SMRModule[M]'s Submit the two hostable backends'.
func TestGenericInterfaceImplsPinned(t *testing.T) {
	root := moduleRoot(t)
	loader := analysis.NewLoader("fortyconsensus", root)
	dirs, err := expand([]string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		if _, err := loader.LoadDir(dir, "fortyconsensus/"+filepath.ToSlash(rel)); err != nil {
			t.Fatal(err)
		}
	}
	prog := analysis.NewProgram(loader)
	steppers := []string{
		"cheapbft.Replica", "commit.Cohort", "commit.Coordinator", "fastpaxos.Node", "hotstuff.Replica",
		"minbft.Replica", "multipaxos.Node", "paxos.Node", "pbft.Replica", "pow.Miner", "pow.SelfishMiner",
		"raft.Node", "seemore.Replica", "xft.Replica", "zyzzyva.Client", "zyzzyva.Replica",
	}
	for _, c := range []struct {
		pkg, iface, method string
		want               []string
	}{
		{"internal/runner", "Node", "Step", append(internalMethods(steppers, "Step"), "(*fortyconsensus/cmd/servebench.idleModule).Step")},
		{"internal/runner", "Node", "Drain", append(internalMethods([]string{"types.Outbox[M]"}, "Drain"), "(*fortyconsensus/cmd/servebench.idleModule).Drain")},
		{"internal/live", "SMRModule", "Submit", internalMethods([]string{"multipaxos.Node", "raft.Node"}, "Submit")},
	} {
		tn := prog.Package("fortyconsensus/" + c.pkg).Types.Scope().Lookup(c.iface).(*types.TypeName)
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, tn.Pkg(), c.method)
		var got []string
		for _, m := range prog.Impls(obj.(*types.Func)) {
			got = append(got, m.FullName())
		}
		slices.Sort(got)
		slices.Sort(c.want)
		if !slices.Equal(got, c.want) {
			t.Errorf("Impls(%s.%s.%s) =\n%q\nwant\n%q", c.pkg, c.iface, c.method, got, c.want)
		}
	}
}

// internalMethods names method m of each internal package's type, as
// types.Func.FullName spells a pointer-receiver method.
func internalMethods(types []string, m string) []string {
	out := make([]string, len(types))
	for i, t := range types {
		out[i] = "(*fortyconsensus/internal/" + t + ")." + m
	}
	return out
}
