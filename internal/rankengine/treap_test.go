package rankengine

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/randutil"
)

// naiveRank mirrors the treap ordering with a plain sorted slice, used as
// the reference model for property tests.
type naiveRank struct{ entries []Entry }

func (nr *naiveRank) insert(e Entry) { nr.entries = append(nr.entries, e); nr.sort() }
func (nr *naiveRank) delete(id int) bool {
	for i, e := range nr.entries {
		if e.ID == id {
			nr.entries = append(nr.entries[:i], nr.entries[i+1:]...)
			return true
		}
	}
	return false
}
func (nr *naiveRank) sort() {
	sort.Slice(nr.entries, func(i, j int) bool { return less(nr.entries[i], nr.entries[j]) })
}

func TestEmptyTreap(t *testing.T) {
	tr := New(1)
	if tr.Len() != 0 {
		t.Fatal("new treap not empty")
	}
	if _, ok := tr.Select(1); ok {
		t.Error("Select on empty treap succeeded")
	}
	if _, ok := tr.Rank(5); ok {
		t.Error("Rank on empty treap succeeded")
	}
	if tr.Delete(3) {
		t.Error("Delete on empty treap returned true")
	}
}

func TestInsertSelectBasic(t *testing.T) {
	tr := New(2)
	tr.Insert(Entry{ID: 1, Popularity: 0.5, BirthDay: 0})
	tr.Insert(Entry{ID: 2, Popularity: 0.9, BirthDay: 0})
	tr.Insert(Entry{ID: 3, Popularity: 0.1, BirthDay: 0})
	wantOrder := []int{2, 1, 3}
	for rank, wantID := range wantOrder {
		e, ok := tr.Select(rank + 1)
		if !ok || e.ID != wantID {
			t.Fatalf("Select(%d) = (%+v, %v), want id %d", rank+1, e, ok, wantID)
		}
	}
	for rank, id := range wantOrder {
		got, ok := tr.Rank(id)
		if !ok || got != rank+1 {
			t.Fatalf("Rank(%d) = (%d, %v), want %d", id, got, ok, rank+1)
		}
	}
}

func TestAgeTieBreak(t *testing.T) {
	tr := New(3)
	// Equal popularity: older page (smaller BirthDay) ranks better.
	tr.Insert(Entry{ID: 10, Popularity: 0.3, BirthDay: 100})
	tr.Insert(Entry{ID: 20, Popularity: 0.3, BirthDay: 50})
	tr.Insert(Entry{ID: 30, Popularity: 0.3, BirthDay: 75})
	want := []int{20, 30, 10}
	for i, id := range want {
		e, _ := tr.Select(i + 1)
		if e.ID != id {
			t.Fatalf("rank %d = page %d, want %d", i+1, e.ID, id)
		}
	}
}

func TestIDTieBreak(t *testing.T) {
	tr := New(4)
	tr.Insert(Entry{ID: 7, Popularity: 0.3, BirthDay: 5})
	tr.Insert(Entry{ID: 3, Popularity: 0.3, BirthDay: 5})
	e, _ := tr.Select(1)
	if e.ID != 3 {
		t.Fatalf("identical (pop, birth): rank 1 = %d, want smaller id 3", e.ID)
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tr := New(5)
	tr.Insert(Entry{ID: 1, Popularity: 0.5})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	tr.Insert(Entry{ID: 1, Popularity: 0.7})
}

func TestUpdateMovesPage(t *testing.T) {
	tr := New(6)
	for i := 1; i <= 5; i++ {
		tr.Insert(Entry{ID: i, Popularity: float64(i) / 10})
	}
	// Page 1 (lowest) jumps to the top.
	tr.Update(Entry{ID: 1, Popularity: 0.99})
	if r, _ := tr.Rank(1); r != 1 {
		t.Fatalf("after update, rank = %d", r)
	}
	if tr.Len() != 5 {
		t.Fatalf("update changed size: %d", tr.Len())
	}
	e, _ := tr.Entry(1)
	if e.Popularity != 0.99 {
		t.Fatalf("entry not updated: %+v", e)
	}
}

func TestUpdateAbsentPanics(t *testing.T) {
	tr := New(7)
	defer func() {
		if recover() == nil {
			t.Fatal("update of absent page did not panic")
		}
	}()
	tr.Update(Entry{ID: 42, Popularity: 0.5})
}

func TestDelete(t *testing.T) {
	tr := New(8)
	for i := 1; i <= 10; i++ {
		tr.Insert(Entry{ID: i, Popularity: float64(i)})
	}
	if !tr.Delete(5) {
		t.Fatal("delete returned false")
	}
	if tr.Len() != 9 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Contains(5) {
		t.Fatal("deleted page still present")
	}
	if tr.Delete(5) {
		t.Fatal("double delete returned true")
	}
	// Remaining order intact: 10, 9, 8, 7, 6, 4, 3, 2, 1.
	want := []int{10, 9, 8, 7, 6, 4, 3, 2, 1}
	for i, id := range want {
		e, ok := tr.Select(i + 1)
		if !ok || e.ID != id {
			t.Fatalf("Select(%d) = %+v, want id %d", i+1, e, id)
		}
	}
}

func TestCountAbove(t *testing.T) {
	tr := New(9)
	pops := []float64{0.9, 0.7, 0.5, 0.3, 0.1}
	for i, p := range pops {
		tr.Insert(Entry{ID: i, Popularity: p})
	}
	// A hypothetical page with popularity 0.6 would sit below 0.9 and 0.7.
	if got := tr.CountAbove(Entry{ID: 999, Popularity: 0.6}); got != 2 {
		t.Fatalf("CountAbove(0.6) = %d, want 2", got)
	}
	if got := tr.CountAbove(Entry{ID: 999, Popularity: 1.0}); got != 0 {
		t.Fatalf("CountAbove(1.0) = %d, want 0", got)
	}
	if got := tr.CountAbove(Entry{ID: 999, Popularity: 0.0}); got != 5 {
		t.Fatalf("CountAbove(0.0) = %d, want 5", got)
	}
}

func TestAscendOrderAndEarlyStop(t *testing.T) {
	tr := New(10)
	for i := 0; i < 20; i++ {
		tr.Insert(Entry{ID: i, Popularity: float64(i % 7), BirthDay: i})
	}
	var ranks []int
	prev := Entry{Popularity: 1e18}
	tr.Ascend(func(rank int, e Entry) bool {
		ranks = append(ranks, rank)
		if less(e, prev) {
			t.Fatalf("ascend out of order at rank %d", rank)
		}
		prev = e
		return rank < 5
	})
	if len(ranks) != 5 {
		t.Fatalf("early stop failed: visited %d", len(ranks))
	}
	for i, r := range ranks {
		if r != i+1 {
			t.Fatalf("rank sequence %v", ranks)
		}
	}
}

func TestAppendRanked(t *testing.T) {
	tr := New(11)
	for i := 0; i < 50; i++ {
		tr.Insert(Entry{ID: i, Popularity: float64((i * 37) % 50)})
	}
	out := tr.AppendRanked(nil)
	if len(out) != 50 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if less(out[i], out[i-1]) {
			t.Fatalf("not in rank order at %d", i)
		}
	}
	// Appending preserves prefix.
	prefix := []Entry{{ID: -1}}
	out2 := tr.AppendRanked(prefix)
	if len(out2) != 51 || out2[0].ID != -1 {
		t.Fatalf("prefix not preserved")
	}
}

func TestTreapMatchesNaiveModel(t *testing.T) {
	// Randomized operation sequence cross-checked against a sorted slice.
	rng := randutil.New(12345)
	tr := New(99)
	model := &naiveRank{}
	live := map[int]Entry{}
	nextID := 0
	for step := 0; step < 3000; step++ {
		op := rng.Intn(10)
		switch {
		case op < 5 || len(live) == 0: // insert
			e := Entry{ID: nextID, Popularity: float64(rng.Intn(50)) / 50, BirthDay: rng.Intn(100)}
			nextID++
			tr.Insert(e)
			model.insert(e)
			live[e.ID] = e
		case op < 7: // delete random live page
			id := randomKey(rng, live)
			tr.Delete(id)
			model.delete(id)
			delete(live, id)
		default: // update random live page
			id := randomKey(rng, live)
			e := live[id]
			e.Popularity = float64(rng.Intn(50)) / 50
			tr.Update(e)
			model.delete(id)
			model.insert(e)
			live[id] = e
		}
		if tr.Len() != len(model.entries) {
			t.Fatalf("step %d: len %d vs model %d", step, tr.Len(), len(model.entries))
		}
		// Spot-check a few ranks each step; full check periodically.
		if step%97 == 0 {
			for r, want := range model.entries {
				got, ok := tr.Select(r + 1)
				if !ok || got.ID != want.ID {
					t.Fatalf("step %d: Select(%d) = %+v, want %+v", step, r+1, got, want)
				}
				rank, ok := tr.Rank(want.ID)
				if !ok || rank != r+1 {
					t.Fatalf("step %d: Rank(%d) = %d, want %d", step, want.ID, rank, r+1)
				}
			}
		}
	}
}

func randomKey(rng *randutil.RNG, m map[int]Entry) int {
	k := rng.Intn(len(m))
	for id := range m {
		if k == 0 {
			return id
		}
		k--
	}
	panic("unreachable")
}

func TestSelectRankInverse(t *testing.T) {
	f := func(seed uint64, sizeRaw uint16) bool {
		size := int(sizeRaw)%300 + 1
		rng := randutil.New(seed)
		tr := New(seed ^ 0xabcdef)
		for i := 0; i < size; i++ {
			tr.Insert(Entry{ID: i, Popularity: rng.Float64(), BirthDay: rng.Intn(10)})
		}
		for rank := 1; rank <= size; rank++ {
			e, ok := tr.Select(rank)
			if !ok {
				return false
			}
			back, ok := tr.Rank(e.ID)
			if !ok || back != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreapBalanced(t *testing.T) {
	// Insert ascending popularity (worst case for a plain BST); depth must
	// stay logarithmic-ish thanks to random priorities.
	tr := New(77)
	const n = 20000
	for i := 0; i < n; i++ {
		tr.Insert(Entry{ID: i, Popularity: float64(i)})
	}
	depth := maxDepth(tr.root)
	if depth > 70 { // ~4.3·log2(n) would be 62; allow slack
		t.Fatalf("treap depth %d too large for n=%d", depth, n)
	}
}

func maxDepth(n *node) int {
	if n == nil {
		return 0
	}
	l, r := maxDepth(n.left), maxDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func BenchmarkTreapUpdate(b *testing.B) {
	tr := New(1)
	const n = 100000
	rng := randutil.New(2)
	for i := 0; i < n; i++ {
		tr.Insert(Entry{ID: i, Popularity: rng.Float64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(n)
		e, _ := tr.Entry(id)
		e.Popularity = rng.Float64()
		tr.Update(e)
	}
}

func BenchmarkTreapSelect(b *testing.B) {
	tr := New(1)
	const n = 100000
	rng := randutil.New(2)
	for i := 0; i < n; i++ {
		tr.Insert(Entry{ID: i, Popularity: rng.Float64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Select(rng.Intn(n) + 1)
	}
}

// Contains reports whether the page is present.
func (t *Treap) Contains(id int) bool {
	_, ok := t.pos[id]
	return ok
}

// Rank returns the 1-based rank of a page. ok is false when absent.
func (t *Treap) Rank(id int) (int, bool) {
	e, ok := t.pos[id]
	if !ok {
		return 0, false
	}
	rank := 1
	n := t.root
	for n != nil {
		if n.entry.ID == e.ID {
			return rank + n.left.sizeOf(), true
		}
		if less(e, n.entry) {
			n = n.left
		} else {
			rank += n.left.sizeOf() + 1
			n = n.right
		}
	}
	return 0, false
}
