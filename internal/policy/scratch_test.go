package policy

import (
	"testing"

	"repro/internal/randutil"
)

// TestScratchMergeTaggedProvenance checks the fromPool tags: over every
// bounded case's lists, each slot's tag must say exactly whether its
// page came from the pool, and no protected slot may be tagged.
func TestScratchMergeTaggedProvenance(t *testing.T) {
	var sc Scratch
	rng := randutil.New(1)
	for _, c := range boundedCases {
		det, pool := c.lists()
		for trial := 0; trial < 50; trial++ {
			got, tags := sc.MergeTagged(det, pool, c.k, c.r, rng)
			if len(got) != c.nd+c.np || len(tags) != len(got) {
				t.Fatalf("case %+v: %d pages, %d tags", c, len(got), len(tags))
			}
			for i, id := range got {
				if tags[i] != (id >= 1000) {
					t.Fatalf("case %+v slot %d: page %d tagged fromPool=%v", c, i, id, tags[i])
				}
				if i < min(c.k-1, c.nd) && tags[i] {
					t.Fatalf("case %+v: protected slot %d tagged as promoted", c, i)
				}
			}
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
