package trace

// Test helpers shared with the external trace_test package.
var (
	TS            = ts
	RandomFailure = randomFailure
)
