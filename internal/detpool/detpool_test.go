package detpool

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestMapIndexOrderAtAnyWorkerCount: the result slice is the same
// whatever the pool size, including sizes outside [1, n].
func TestMapIndexOrderAtAnyWorkerCount(t *testing.T) {
	const n = 37
	want := make([]int64, n)
	for i := range want {
		want[i] = SubSeed(7, i)
	}
	for _, workers := range []int{0, 1, 2, 8, n + 3} {
		var calls atomic.Int64
		got := Map(n, workers, func(i int) int64 {
			calls.Add(1)
			return SubSeed(7, i)
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results out of index order", workers)
		}
		if calls.Load() != n {
			t.Errorf("workers=%d: fn called %d times, want %d", workers, calls.Load(), n)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := Map(0, 4, func(int) int {
		t.Error("fn called for n == 0")
		return 0
	})
	if len(got) != 0 {
		t.Errorf("len = %d, want 0", len(got))
	}
}

// TestSubSeedPinned pins the stream derivation: the fleet's instance
// streams and the red-team sentinels depend on these exact values.
func TestSubSeedPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		i    int
		want int64
	}{
		{7, 0, 3207296026000306913},
		{7, 2, -5047884839705221754},
		{42, 18, -1882024385431016019},
		{-5, 1, -5963429699273353948},
		{0, 0, 0},
	} {
		if got := SubSeed(c.seed, c.i); got != c.want {
			t.Errorf("SubSeed(%d, %d) = %d, want %d", c.seed, c.i, got, c.want)
		}
	}
}
