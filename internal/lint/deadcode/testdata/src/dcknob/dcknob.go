// Package dcknob holds the fixture's configuration types: a field only
// defaults, tests, unreached code or nothing sets is reported.
package dcknob // want "fix/dcknob.Params.Gone is listed exempt, but fix/dcknob does not declare it"

type Config struct {
	ByKey, ByAssign, ByAddress int
	Defaulted                  int // want "fix/dcknob.Config.Defaulted is set by no program"
	Tested                     int // want "fix/dcknob.Config.Tested is set by no program"
	Unreached                  int // want "fix/dcknob.Config.Unreached is set by no program"
	Nowhere                    int // want "fix/dcknob.Config.Nowhere is set by no program"
}

func (c Config) withDefaults() Config {
	c.Defaulted = 3
	return c
}

func unreached() Config { return Config{Unreached: 1} } // want "fix/dcknob.unreached is unreachable"

type Params struct {
	Swept     int
	Preset    int // want "fix/dcknob.Params.Preset is set by no program"
	NowTurned int // want "fix/dcknob.Params.NowTurned is set by a program now"
}

func DefaultParams() Params { return Params{Preset: 2} }

// Options is generic: a literal of Options[int] sets Options' field.
type Options[T any] struct{ Less func(a, b T) bool }

// state is no configuration type: nothing is asked of its fields.
type state struct{ never int }

// New is what the fixture's main calls.
func New(c Config) Config { return c.withDefaults() }
