package datalog

// The optimizer differential (optimize_differential_test.go) imports
// package analyze, which imports this package, so it runs as the
// external package datalog_test. These aliases hand it the engine
// differential's generator, vocabulary and fact transcript.
var (
	GenProgram       = genProgram
	DumpFacts        = dumpFacts
	DiffBaseArity    = diffBaseAr
	DiffDerived      = diffDerived
	DiffDerivedArity = diffDerive
)
