// Package rankengine maintains the search engine's ranked list of pages as
// an order-statistic treap keyed by (popularity descending, birth day
// ascending, id ascending). The age tie-break follows the paper's live
// study (Appendix A, footnote 6): among equally popular pages, older pages
// receive better rank positions.
//
// The treap supports the three operations the simulator needs each day in
// O(log n): update a page's popularity, fetch the page at a given rank
// (Select), and fetch the rank of a page (Rank).
package rankengine

import (
	"fmt"

	"repro/internal/randutil"
)

// Entry is one ranked page.
type Entry struct {
	ID         int
	Popularity float64
	BirthDay   int
}

// Less reports whether a ranks strictly better than b: higher popularity
// first, then older (smaller BirthDay), then smaller ID for total order.
// It is exported so shard mergers (the serving layer's top-list merge) can
// interleave entries from several treaps in global rank order.
func Less(a, b Entry) bool { return less(a, b) }

// less orders entries by rank: higher popularity first, then older
// (smaller BirthDay), then smaller ID for total order.
func less(a, b Entry) bool {
	if a.Popularity != b.Popularity {
		return a.Popularity > b.Popularity
	}
	if a.BirthDay != b.BirthDay {
		return a.BirthDay < b.BirthDay
	}
	return a.ID < b.ID
}

type node struct {
	entry       Entry
	priority    uint64
	size        int
	left, right *node
}

func (n *node) sizeOf() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() {
	n.size = 1 + n.left.sizeOf() + n.right.sizeOf()
}

// Treap is an order-statistic treap over page entries. Each page ID may
// appear at most once. The zero value is not usable; construct with New.
type Treap struct {
	root *node
	rng  *randutil.RNG
	pos  map[int]Entry // page id -> current entry, for O(1) lookup & delete key
}

// New creates an empty treap whose rotation priorities come from the given
// seed (structure, not contents, depends on it).
func New(seed uint64) *Treap {
	return &Treap{rng: randutil.New(seed), pos: make(map[int]Entry)}
}

// Len returns the number of pages in the treap.
func (t *Treap) Len() int { return t.root.sizeOf() }

// Entry returns the stored entry for a page.
func (t *Treap) Entry(id int) (Entry, bool) {
	e, ok := t.pos[id]
	return e, ok
}

// Insert adds a page. It panics if the id is already present — the
// simulator's contract is one entry per live page, and silently replacing
// would hide accounting bugs.
func (t *Treap) Insert(e Entry) {
	if _, ok := t.pos[e.ID]; ok {
		panic(fmt.Sprintf("rankengine: duplicate insert of page %d", e.ID))
	}
	t.pos[e.ID] = e
	t.root = t.insert(t.root, &node{entry: e, priority: t.rng.Uint64(), size: 1})
}

func (t *Treap) insert(root, n *node) *node {
	if root == nil {
		return n
	}
	if less(n.entry, root.entry) {
		root.left = t.insert(root.left, n)
		if root.left.priority > root.priority {
			root = rotateRight(root)
		}
	} else {
		root.right = t.insert(root.right, n)
		if root.right.priority > root.priority {
			root = rotateLeft(root)
		}
	}
	root.update()
	return root
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	y.update()
	x.update()
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	x.update()
	y.update()
	return y
}

// Delete removes a page. It returns false if the page was absent.
func (t *Treap) Delete(id int) bool {
	e, ok := t.pos[id]
	if !ok {
		return false
	}
	delete(t.pos, id)
	t.root = t.deleteNode(t.root, e)
	return true
}

func (t *Treap) deleteNode(root *node, e Entry) *node {
	if root == nil {
		return nil
	}
	switch {
	case root.entry.ID == e.ID:
		// Merge children by rotating the higher-priority child up.
		if root.left == nil {
			return root.right
		}
		if root.right == nil {
			return root.left
		}
		if root.left.priority > root.right.priority {
			root = rotateRight(root)
			root.right = t.deleteNode(root.right, e)
		} else {
			root = rotateLeft(root)
			root.left = t.deleteNode(root.left, e)
		}
	case less(e, root.entry):
		root.left = t.deleteNode(root.left, e)
	default:
		root.right = t.deleteNode(root.right, e)
	}
	root.update()
	return root
}

// Update changes a page's popularity (and optionally birth day) by
// delete+reinsert, preserving the page's identity.
func (t *Treap) Update(e Entry) {
	if !t.Delete(e.ID) {
		panic(fmt.Sprintf("rankengine: update of absent page %d", e.ID))
	}
	t.Insert(e)
}

// Select returns the entry at 1-based rank. ok is false when the rank is
// out of range.
func (t *Treap) Select(rank int) (Entry, bool) {
	if rank < 1 || rank > t.Len() {
		return Entry{}, false
	}
	n := t.root
	for {
		leftSize := n.left.sizeOf()
		switch {
		case rank <= leftSize:
			n = n.left
		case rank == leftSize+1:
			return n.entry, true
		default:
			rank -= leftSize + 1
			n = n.right
		}
	}
}

// CountAbove returns the number of pages with strictly better rank order
// than a hypothetical entry e (i.e. the 0-based position e would occupy).
func (t *Treap) CountAbove(e Entry) int {
	count := 0
	n := t.root
	for n != nil {
		if less(n.entry, e) {
			count += n.left.sizeOf() + 1
			n = n.right
		} else {
			n = n.left
		}
	}
	return count
}

// Ascend calls fn for each entry in rank order (best first) until fn
// returns false.
func (t *Treap) Ascend(fn func(rank int, e Entry) bool) {
	rank := 0
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		rank++
		if !fn(rank, n.entry) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}

// TopK appends the k best-ranked entries to dst in rank order and returns
// it. k larger than Len() yields every entry; k <= 0 yields none. Unlike
// AppendRanked it visits only the O(k + log n) nodes on the walk, so a
// serving shard can rebuild its top-list snapshot without touching the
// long tail.
func (t *Treap) TopK(k int, dst []Entry) []Entry {
	if k <= 0 {
		return dst
	}
	t.Ascend(func(rank int, e Entry) bool {
		dst = append(dst, e)
		return rank < k
	})
	return dst
}

// AppendRanked appends all entries in rank order to dst and returns it.
func (t *Treap) AppendRanked(dst []Entry) []Entry {
	if cap(dst)-len(dst) < t.Len() {
		grown := make([]Entry, len(dst), len(dst)+t.Len())
		copy(grown, dst)
		dst = grown
	}
	t.Ascend(func(_ int, e Entry) bool {
		dst = append(dst, e)
		return true
	})
	return dst
}
