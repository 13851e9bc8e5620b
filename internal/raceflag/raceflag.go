// Package raceflag tells tests whether the race detector is compiled in.
// Allocation guards (testing.AllocsPerRun) skip under it: the detector's
// instrumentation allocates and sync.Pool drops items at random there,
// so the counts say nothing about the code under test.
package raceflag

import "runtime/debug"

// Enabled reports that the binary was built with -race. It reads the
// build settings the toolchain records in every binary, test binaries
// included, so it needs no build tag.
func Enabled() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
