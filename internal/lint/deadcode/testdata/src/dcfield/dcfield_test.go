package dcfield

import "testing"

func TestViaTest(t *testing.T) {
	if (writes{viaTest: 1}).viaTest != 1 {
		t.Fatal("viaTest")
	}
}
