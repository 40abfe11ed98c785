package deadcode_test

import (
	"testing"

	"fortyconsensus/internal/lint/analysistest"
	"fortyconsensus/internal/lint/deadcode"
)

func TestDeadcode(t *testing.T) {
	awaiting := []string{"fix/dcmain.awaited", "fix/dcmain.reachedAwaited", "fix/dcmain.gone"}
	knobs := []string{"fix/dcknob.Params.Swept", "fix/dcknob.Params.NowTurned", "fix/dcknob.Params.Gone"}
	analysistest.Run(t, "testdata", deadcode.New(awaiting, knobs), "dcmain", "dchelp", "dcknob")
}

func TestDeadcodeNeedsAMain(t *testing.T) {
	analysistest.Run(t, "testdata/nomain", deadcode.New(nil, nil), "dclib")
}
