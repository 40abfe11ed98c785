package dcknob

import "testing"

func TestTested(t *testing.T) {
	if New(Config{Tested: 1}).Tested+(Params{Swept: 1}).Swept != 2 {
		t.Fatal("zero")
	}
}
