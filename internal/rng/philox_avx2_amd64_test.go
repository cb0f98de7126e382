package rng

import "testing"

// TestHasAVX2MatchesCPUID: the exported report is the runtime gate itself, so
// a perf row that reads rng_avx2 names the kernel that actually ran.
func TestHasAVX2MatchesCPUID(t *testing.T) {
	if got, want := HasAVX2(), detectAVX2(); got != want {
		t.Fatalf("HasAVX2() = %v, detectAVX2() = %v", got, want)
	}
}
