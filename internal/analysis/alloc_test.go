package analysis

import (
	"testing"

	"github.com/ghost-installer/gia/internal/race"
)

// Alloc-budget tests pin the front-end's per-instruction allocation cost
// so regressions (a dropped intern, a lost scratch pool, an accidental
// string copy) fail loudly. Budgets carry headroom over measured values
// (~2.1 parse, ~9.6 full at the time of writing); they are ceilings, not
// targets. Race instrumentation changes allocation counts, so these skip
// under -race — verify.sh runs them in a separate non-race pass.

func allocsPerInstruction(t *testing.T, runs int, src []byte, f func()) float64 {
	t.Helper()
	cls, err := ParseBytes("budget.smali", src)
	if err != nil {
		t.Fatal(err)
	}
	n := cls.Instructions()
	if n == 0 {
		t.Fatal("fixture has no instructions")
	}
	return testing.AllocsPerRun(runs, f) / float64(n)
}

func TestParseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	src := []byte(goodSmali)
	got := allocsPerInstruction(t, 500, src, func() {
		if _, err := ParseBytes("budget.smali", src); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 3.0
	if got > budget {
		t.Errorf("ParseBytes allocates %.2f/instruction, budget %.1f", got, budget)
	}
}

func TestAnalyzeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng := NewEngine()
	src := []byte(goodSmali)
	got := allocsPerInstruction(t, 500, src, func() {
		if _, _, err := eng.analyzeUncached("budget.smali", src); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 12.0
	if got > budget {
		t.Errorf("full analysis allocates %.2f/instruction, budget %.1f", got, budget)
	}
}
