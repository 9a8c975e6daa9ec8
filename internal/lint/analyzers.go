package lint

// DefaultAnalyzers returns the full remicss analyzer suite configured for
// the module rooted at modulePath: the secret-bearing package set for
// insecure-rand is derived from the module path, and the annotation-driven
// analyzers (noalloc, mutexguard, noretain, readonly-input) apply
// everywhere.
func DefaultAnalyzers(modulePath string) []*Analyzer {
	secret := map[string]bool{
		modulePath:                       true,
		modulePath + "/internal/remicss": true,
		modulePath + "/internal/shamir":  true,
		modulePath + "/internal/sharing": true,
		modulePath + "/internal/drbg":    true,
		modulePath + "/internal/wire":    true,
	}
	return []*Analyzer{
		InsecureRandAnalyzer(secret),
		NoAllocAnalyzer(),
		MutexGuardAnalyzer(),
		NoRetainAnalyzer(),
		ReadOnlyInputAnalyzer(),
		TaintAnalyzer(),
		LockOrderAnalyzer(),
		AtomicMixAnalyzer(),
	}
}
