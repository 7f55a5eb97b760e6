package searchidx

import (
	"strconv"
	"testing"
)

// TestTermTableChurnStaysBounded streams 50,000 documents, each with a
// term no other document carries, through a window of live ones: every
// cycle adds one and deletes the oldest. Tombstones must be dropped at
// resize and the ids of departed terms reissued, so the table stays at
// a few slots per live term and the id directory at the live vocabulary,
// however many terms have come and gone.
func TestTermTableChurnStaysBounded(t *testing.T) {
	const (
		cycles = 50000
		window = 100
	)
	ix := NewIndex()
	add := func(i int) {
		if err := ix.Add(Document{ID: i, Text: "shared u" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < window; i++ {
		add(i)
	}
	for i := window; i < window+cycles; i++ {
		add(i)
		if !ix.Delete(i - window) {
			t.Fatalf("delete %d failed", i-window)
		}
		live := window + 1 // the window's unique terms plus "shared"
		if got := ix.Terms(); got != live {
			t.Fatalf("cycle %d: Terms = %d, want %d", i, got, live)
		}
		if slots := len(*ix.terms.slots.Load()); slots > 4*live+16 {
			t.Fatalf("cycle %d: %d table slots for %d live terms", i, slots, live)
		}
		// One add ahead of the delete that frees an id: the directory
		// never needs more than live+1 ids.
		if next := int(ix.terms.next); next > live+1 {
			t.Fatalf("cycle %d: %d term ids issued for %d live terms", i, next, live)
		}
	}
	if got := ix.Retrieve("shared"); len(got) != window || got[0] != cycles {
		t.Fatalf("after churn, shared retrieves %v, want the %d docs from %d on", got, window, cycles)
	}
}
