package main

import "testing"

func TestOnly(t *testing.T) {
	if onlyTests()+(tool{}).Term() != 3 {
		t.Fatal("sum")
	}
}
