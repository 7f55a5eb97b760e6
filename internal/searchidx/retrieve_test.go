package searchidx

import (
	"math"
	"strconv"
	"testing"
)

func TestRetrieve(t *testing.T) {
	ix := NewIndex()
	docs := []Document{
		{ID: 3, Text: "go ranking service"},
		{ID: 1, Text: "go ranking paper"},
		{ID: 2, Text: "ranking theory"},
	}
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	got := ix.Retrieve("go ranking")
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Retrieve = %v, want [1 3] in ascending id order", got)
	}
	if got := ix.Retrieve("ranking"); len(got) != 3 {
		t.Fatalf("Retrieve single term = %v, want 3 matches", got)
	}
	if got := ix.Retrieve("go theory"); len(got) != 0 {
		t.Fatalf("conjunctive Retrieve = %v, want empty", got)
	}
	if got := ix.Retrieve(""); got != nil {
		t.Fatalf("empty query = %v, want nil", got)
	}
	// The returned slice must not alias postings storage.
	got = ix.Retrieve("ranking")
	got[0] = -7
	if again := ix.Retrieve("ranking"); again[0] == -7 {
		t.Fatal("Retrieve aliases postings storage")
	}
}

// TestRetrieveEarlyExitAllocs pins the satellite bugfix: a query with an
// unknown term, a term-free query, or an empty query returns nil without
// allocating anything — the handler's cheapest possible miss.
func TestRetrieveEarlyExitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so pooled paths allocate by design")
	}
	ix := NewIndex()
	for i := 0; i < 50; i++ {
		if err := ix.Add(Document{ID: i, Text: "known words everywhere"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, query := range []string{"", "   ", "!!, ..", "nosuchterm", "known nosuchterm", "nosuchterm known"} {
		// Warm the scratch pools so the measurement sees steady state.
		if got := ix.Retrieve(query); got != nil {
			t.Fatalf("Retrieve(%q) = %v, want nil", query, got)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if ix.Retrieve(query) != nil {
				t.Errorf("Retrieve(%q) matched", query)
			}
		})
		if allocs > 0 {
			t.Errorf("Retrieve(%q) allocated %.2f objects per run, want 0", query, allocs)
		}
	}
}

// TestSnapshotEpochAndVisibility checks the read contract: every mutation
// advances the epoch by exactly one, a Snapshot is at least as fresh as
// its epoch (a document is retrievable under every one of its terms once
// Add has returned), a list a reader already copied out is never written
// again, and a term whose last document leaves is gone from the table.
func TestSnapshotEpochAndVisibility(t *testing.T) {
	ix := NewIndex()
	e0 := ix.Snapshot().Epoch()
	if err := ix.Add(Document{ID: 1, Text: "stable doc"}); err != nil {
		t.Fatal(err)
	}
	old := ix.Snapshot()
	if old.Epoch() != e0+1 {
		t.Fatalf("epoch after Add = %d, want %d", old.Epoch(), e0+1)
	}
	// dst aliases nothing the index owns: filled before the mutations
	// below, it must read the same after them. The live list's backing
	// array (spare capacity included) is kept to check the published
	// prefix itself is never written either.
	before := old.RetrieveInto(nil, "stable")
	if len(before) != 1 || before[0] != 1 {
		t.Fatalf("snapshot after first Add sees %v, want [1]", before)
	}
	held := ix.postings("stable").tail.ids
	if err := ix.Add(Document{ID: 2, Text: "stable doc fresh"}); err != nil {
		t.Fatal(err)
	}
	cur := ix.Snapshot()
	if cur.Epoch() != e0+2 {
		t.Fatalf("epoch after second Add = %d, want %d", cur.Epoch(), e0+2)
	}
	for _, term := range []string{"stable", "doc", "fresh", "stable doc fresh"} {
		got := cur.RetrieveInto(nil, term)
		if len(got) == 0 || got[len(got)-1] != 2 {
			t.Fatalf("snapshot taken after Add returned sees %v under %q, want doc 2", got, term)
		}
	}
	if !ix.Delete(1) {
		t.Fatal("delete failed")
	}
	if got := ix.Snapshot().Epoch(); got != e0+3 {
		t.Fatalf("epoch after Delete = %d, want %d", got, e0+3)
	}
	if len(before) != 1 || before[0] != 1 || len(held) != 1 || held[0] != 1 {
		t.Fatalf("lists read before the mutations changed: dst %v, published prefix %v", before, held)
	}
	if got := ix.Snapshot().RetrieveInto(nil, "stable"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after Delete, stable matches %v, want [2]", got)
	}

	// Delete everything, re-add, twice over: emptied terms retrieve nil,
	// leave the table, and come back as fresh cells.
	liveCells := func() int {
		n := 0
		s := *ix.terms.slots.Load()
		for i := range s {
			if c := s[i].Load(); c != nil && c != tombstone {
				n++
			}
		}
		return n
	}
	for cycle := 0; cycle < 2; cycle++ {
		if !ix.Delete(2) {
			t.Fatal("delete failed")
		}
		for _, term := range []string{"stable", "doc", "fresh"} {
			if got := ix.Snapshot().RetrieveInto(nil, term); got != nil {
				t.Fatalf("emptied term %q retrieves %v, want nil", term, got)
			}
			if ix.terms.lookup(term) != nil {
				t.Fatalf("emptied term %q still has a cell", term)
			}
		}
		if ix.Terms() != 0 || liveCells() != 0 {
			t.Fatalf("after delete-everything: Terms = %d, live cells = %d, want 0", ix.Terms(), liveCells())
		}
		if err := ix.Add(Document{ID: 2, Text: "stable doc fresh"}); err != nil {
			t.Fatal(err)
		}
		if ix.Terms() != 3 || liveCells() != 3 {
			t.Fatalf("after re-add: Terms = %d, live cells = %d, want 3", ix.Terms(), liveCells())
		}
	}
	if got, want := ix.Snapshot().Epoch(), e0+3+4; got != want {
		t.Fatalf("epoch after the churn cycles = %d, want %d", got, want)
	}
}

// TestManyTermsKeepPostings pushes several hundred distinct terms through
// the table, then deletes every seventh document, and checks nothing is
// lost or resurrected.
func TestManyTermsKeepPostings(t *testing.T) {
	ix := NewIndex()
	n := 256*3 + 17
	for i := 0; i < n; i++ {
		if err := ix.Add(Document{ID: i, Text: "common term" + string(rune('a'+i%26)) + " uniq" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ix.Retrieve("common")); got != n {
		t.Fatalf("common matched %d, want %d", got, n)
	}
	for i := 0; i < n; i += 7 {
		if !ix.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
		if got := ix.Retrieve("uniq" + strconv.Itoa(i)); got != nil {
			t.Fatalf("deleted doc %d still retrievable: %v", i, got)
		}
	}
	want := n - (n+6)/7
	if got := len(ix.Retrieve("common")); got != want {
		t.Fatalf("after deletes, common matched %d, want %d", got, want)
	}
}

func TestAddRejectsOutOfRangeID(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add(Document{ID: -1, Text: "negative"}); err == nil {
		t.Error("negative id accepted")
	}
	// Non-constant conversions so the test still compiles where int is
	// 32 bits (the edge cases themselves only exist on 64-bit ints).
	var maxU32 int64 = math.MaxUint32
	if int64(int(maxU32)) != maxU32 {
		t.Skip("32-bit int cannot represent ids at the uint32 boundary")
	}
	if err := ix.Add(Document{ID: int(maxU32) + 1, Text: "too big"}); err == nil {
		t.Error("id above uint32 range accepted")
	}
	if err := ix.Add(Document{ID: int(maxU32), Text: "edge id"}); err != nil {
		t.Errorf("max uint32 id rejected: %v", err)
	}
	if got := ix.Retrieve("edge"); len(got) != 1 || got[0] != int(maxU32) {
		t.Fatalf("edge doc not retrievable: %v", got)
	}
}

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"go ranking", "go ranking"},
		{"  Go   RANKING!! ", "go ranking"},
		{"go-ranking", "go ranking"},
		{"", ""},
		{" , !", ""},
		{"päge Ümlaut", "päge ümlaut"},
		{"a1 b2", "a1 b2"},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Canonical input must come back without allocation.
	q := "already normal query"
	if NormalizeQuery(q) != q {
		t.Fatal("canonical query changed")
	}
	allocs := testing.AllocsPerRun(200, func() { _ = NormalizeQuery(q) })
	if allocs > 0 {
		t.Errorf("NormalizeQuery on canonical input allocated %.2f objects per run", allocs)
	}
}
