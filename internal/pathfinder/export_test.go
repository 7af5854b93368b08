package pathfinder

import (
	"pathfinder/internal/cpu"
	"pathfinder/internal/isa"
)

// CorpusProgram is one hand-written search victim of pathfinder_test.go,
// exported to the golden corpus of the external test package.
type CorpusProgram struct {
	Name  string
	Prog  *isa.Program
	Setup func(m *cpu.Machine) // nil when the program reads no data
}

// CorpusPrograms lists the programs pathfinder_test.go recovers. Each runs
// from "entry" and ends at "end".
func CorpusPrograms() []CorpusProgram {
	return []CorpusProgram{
		{Name: "simple-loop", Prog: simpleLoopProgram(5)},
		{Name: "nested-loops", Prog: nestedLoopsProgram()},
		{Name: "secret-ladder", Prog: secretLadderProgram(), Setup: setupSecretLadder},
		{Name: "call-return", Prog: callReturnProgram()},
		{Name: "long-loop", Prog: longLoopProgram(250)},
	}
}
