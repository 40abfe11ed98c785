package deadcode_test

import (
	"testing"

	"fortyconsensus/internal/lint/analysistest"
	"fortyconsensus/internal/lint/deadcode"
)

func TestDeadcode(t *testing.T) {
	awaiting := []string{"fix/dcmain.awaited", "fix/dcmain.reachedAwaited", "fix/dcmain.gone"}
	analysistest.Run(t, "testdata", deadcode.New(awaiting), "dcmain", "dchelp")
}

func TestDeadcodeNeedsAMain(t *testing.T) {
	analysistest.Run(t, "testdata/nomain", deadcode.New(nil), "dclib")
}
