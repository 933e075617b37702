//go:build !race

// Package race reports whether the binary was built with the race
// detector. Only tests import it: the allocation-budget assertions skip
// under -race, because the detector's instrumentation changes allocation
// counts.
package race

// Enabled reports whether the race detector is compiled in.
const Enabled = false
