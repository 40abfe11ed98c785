// Package dchelp is reached from the fixture's main across a package
// boundary.
package dchelp

// Used is called from main.
func Used() { helper() }

func helper() {}

// Unused is exported, but exported is not reached.
func Unused() {} // want "fix/dchelp.Unused is unreachable"
