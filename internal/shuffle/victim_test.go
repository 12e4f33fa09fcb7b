package shuffle

import (
	"math/rand"
	"testing"
)

// naiveVictim is the definition victimCursor must reproduce: the first
// position among those holding the greatest age, by a full scan.
func naiveVictim(ages []int32) int {
	oldest := 0
	for j := 1; j < len(ages); j++ {
		if ages[j] > ages[oldest] {
			oldest = j
		}
	}
	return oldest
}

// cursorMergeAgrees folds random newcomers into a random view the way
// merge does — append while there is room, then evict — and checks every
// victim the cursor names against the full scan. Ages come from a range
// of three or four values, so most views hold several entries at the top
// level and levels are exhausted mid-merge; newcomers land at, below and
// (admitted only when seeding) above the current level, and views that
// start short fill up on the way.
func cursorMergeAgrees(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for trial := 0; trial < 20000; trial++ {
		capacity := 1 + rng.Intn(12)
		spread := 1 + rng.Intn(4)
		ages := make([]int32, rng.Intn(capacity+1), capacity)
		for i := range ages {
			ages[i] = int32(rng.Intn(spread) - 1)
		}
		seeding := rng.Intn(3) == 0
		var vc victimCursor
		for n := rng.Intn(3 * capacity); n > 0; n-- {
			age := int32(rng.Intn(spread+2) - 2)
			if len(ages) < capacity {
				ages = append(ages, age)
				continue
			}
			want := naiveVictim(ages)
			got := vc.next(ages)
			if got != want {
				t.Fatalf("trial %d (seeding=%v): cursor names position %d of %v, the first among the greatest is %d",
					trial, seeding, got, ages, want)
			}
			if seeding || ages[got] >= age {
				ages[got] = age
			}
		}
	}
}

// TestVictimCursorMatchesFullScan is the property test of the level
// cursor alone, which Cyclon's packed views and the Agent's age column
// share.
func TestVictimCursorMatchesFullScan(t *testing.T) {
	cursorMergeAgrees(t, rand.New(rand.NewSource(11)))
	cursorMergeAgrees(t, rand.New(rand.NewSource(12)))
}
