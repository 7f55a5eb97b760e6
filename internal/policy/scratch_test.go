package policy

import (
	"testing"

	"repro/internal/randutil"
)

// TestScratchMergeTaggedProvenance checks the fromPool tags: the tagged
// merge must produce the identical list, and the tags must exactly
// identify pool membership.
func TestScratchMergeTaggedProvenance(t *testing.T) {
	det := Slice{10, 20, 30, 40, 50}
	pool := Slice{100, 200, 300}
	inPool := map[int]bool{100: true, 200: true, 300: true}
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		seed := uint64(trial + 1)
		want := Merge(det, pool, 2, 0.3, randutil.New(seed), nil)
		got, tags := sc.MergeTagged(det, pool, 2, 0.3, randutil.New(seed))
		if len(got) != len(want) || len(tags) != len(got) {
			t.Fatalf("trial %d: lengths %d/%d/%d", trial, len(got), len(tags), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d slot %d: %d != %d", trial, i, got[i], want[i])
			}
			if tags[i] != inPool[got[i]] {
				t.Fatalf("trial %d slot %d: page %d tagged fromPool=%v", trial, i, got[i], tags[i])
			}
		}
		if tags[0] {
			t.Fatalf("trial %d: protected slot tagged as promoted", trial)
		}
	}
}

// TestScratchReuseDoesNotAllocate confirms the hook earns its name: a
// steady-state tagged merge allocates nothing.
func TestScratchReuseDoesNotAllocate(t *testing.T) {
	det := make(Slice, 1000)
	pool := make(Slice, 50)
	for i := range det {
		det[i] = i
	}
	for i := range pool {
		pool[i] = 10000 + i
	}
	var sc Scratch
	rng := randutil.New(1)
	// Boxing a slice into the Source interface allocates; steady-state
	// callers avoid it by passing pointer sources (*Slice boxes for free).
	detSrc, poolSrc := Source(&det), Source(&pool)
	sc.MergeTagged(detSrc, poolSrc, 1, 0.1, rng) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		sc.MergeTagged(detSrc, poolSrc, 1, 0.1, rng)
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeTagged allocates %v times per run", allocs)
	}
}
