package logsync

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// matchScan is the matcher as first written: every unused app of the
// bucket in ascending index order, every zone reading, keeping the first
// strictly smaller skew. matchApp must pick what it picks.
func matchScan(bucket []int, starts []time.Time, used []bool, readings [4]time.Time) (int, time.Duration) {
	asc := slices.Clone(bucket)
	slices.Sort(asc)
	bestApp, bestSkew := -1, matchTolerance+1
	for _, i := range asc {
		if used[i] {
			continue
		}
		for _, c := range readings {
			skew := starts[i].Sub(c)
			if skew < 0 {
				skew = -skew
			}
			if skew < bestSkew {
				bestSkew, bestApp = skew, i
			}
		}
	}
	return bestApp, bestSkew
}

func TestMatchWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := time.Date(2022, 8, 15, 16, 1, 38, 0, time.UTC)
	for trial := 0; trial < 20_000; trial++ {
		// Starts on a coarse grid around two name stamps two hours apart,
		// so equal skews, equal starts and windows holding several apps
		// are common.
		n := 1 + rng.Intn(12)
		starts := make([]time.Time, n)
		used := make([]bool, n)
		bucket := make([]int, n)
		for i := range starts {
			hub := base.Add(time.Duration(rng.Intn(2)) * 2 * time.Hour)
			starts[i] = hub.Add(time.Duration(rng.Intn(41)-20) * 250 * time.Millisecond).
				Add(time.Duration(rng.Intn(5)-2) * time.Hour)
			used[i] = rng.Intn(4) == 0
			bucket[i] = i
		}
		slices.SortStableFunc(bucket, func(a, b int) int { return starts[a].Compare(starts[b]) })
		naive := base.Add(time.Duration(rng.Intn(2))*2*time.Hour + time.Duration(rng.Intn(9)-4)*500*time.Millisecond)
		naive = time.Date(naive.Year(), naive.Month(), naive.Day(), naive.Hour()-7, naive.Minute(), naive.Second(), naive.Nanosecond(), time.UTC)
		readings := resolveFileStart(naive)

		gotApp, gotSkew := matchApp(bucket, starts, used, readings)
		wantApp, wantSkew := matchScan(bucket, starts, used, readings)
		if gotApp != wantApp || gotApp >= 0 && gotSkew != wantSkew {
			t.Fatalf("trial %d: matchApp = (%d, %v), scan (%d, %v)\nstarts %v\nused %v\nreadings %v",
				trial, gotApp, gotSkew, wantApp, wantSkew, starts, used, readings)
		}
	}
}
