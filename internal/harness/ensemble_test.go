package harness

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestEnsembleOnsagerAgreesWithExact: the ensemble physics table at smoke
// scale must land near the exact Onsager values in the ordered phase — the
// same tolerance band the cross-backend physics tests use.
func TestEnsembleOnsagerAgreesWithExact(t *testing.T) {
	tab := EnsembleOnsager(64, 16, 150, 150, 2026)
	if len(tab.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3", len(tab.Rows))
	}
	for i := range tab.Rows {
		for _, col := range []int{4, 7} { // delta |m|, delta E
			cell := strings.TrimPrefix(tab.Cell(i, col), "+")
			d, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %d col %d: %q not numeric (%v)", i, col, tab.Cell(i, col), err)
			}
			if math.Abs(d) > 0.05 {
				t.Errorf("row %d (%s): deviation %v from exact value exceeds 0.05", i, tab.Cell(i, 0), d)
			}
		}
	}
}
