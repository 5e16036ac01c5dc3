package vm

// Hooks for the external test package (package vm_test), whose tests need
// the workload and scenario catalogues that import this package.
var (
	RunOps            = runOps
	TrapThrown        = trapThrown
	GenProgram        = genProgram
	GenLoopProgram    = genLoopProgram
	GenOSRLoopProgram = genOSRLoopProgram
)
