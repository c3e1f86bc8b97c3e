package sqldb

// RefExec and RefDiff expose the brute-force reference evaluator and its
// comparison to the external test package, whose dataset suites cannot live
// here (they import internal/experiments, which imports sqldb).
var (
	RefExec = refExec
	RefDiff = refDiff
)
