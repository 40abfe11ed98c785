// Package dclib has no main to reach anything from: the analyzer cannot
// judge reachability and reports nothing.
package dclib

func Unused() {}
