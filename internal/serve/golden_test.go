package serve

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// serveGoldenSlot is one expected served slot of the golden table.
type serveGoldenSlot struct {
	ID         int
	Popularity float64
	Promoted   bool
}

// serveGoldenPolicies maps the golden table's policy names to the
// policies the pre-refactor corpus was configured with.
var serveGoldenPolicies = map[string]policy.Spec{
	"selective_k1_r03": {Rule: policy.RuleSelective, K: 1, R: 0.3},
	"selective_k2_r01": {Rule: policy.RuleSelective, K: 2, R: 0.1},
	"uniform_k1_r03":   {Rule: policy.RuleUniform, K: 1, R: 0.3},
	"none":             {Rule: policy.RuleNone, K: 1},
}

// goldenWideQuery and goldenWideTerm mark the golden rows served from
// the wide corpus (addGoldenPages), whose matches span many posting
// chunks.
const (
	goldenWideQuery = "wide deck"
	goldenWideTerm  = "wide"
)

// goldenWide reports whether a golden row's query is served from the
// wide corpus.
func goldenWide(query string) bool {
	return query == goldenWideQuery || query == goldenWideTerm
}

// addGoldenPages fills c with a golden table's fixed corpus. The narrow
// corpus holds 40 pages with descending popularity and every fourth
// page zero-awareness, all in one posting chunk. The wide corpus holds
// 2,000 pages shaped the same way: every page carries "wide" and four
// in five carry "deck", so "wide deck" intersects two lists over 13
// driving chunks of 128 ids and "wide" streams one list over 16. A
// selection rule that skipped chunks would draw a different pool there.
func addGoldenPages(t *testing.T, c *Corpus, wide bool) {
	t.Helper()
	pages, text := 40, func(i int) string { return fmt.Sprintf("golden topic page%d", i) }
	if wide {
		pages, text = 2000, func(i int) string {
			if i%5 == 0 {
				return fmt.Sprintf("wide page%d", i)
			}
			return fmt.Sprintf("wide deck page%d", i)
		}
	}
	for i := 0; i < pages; i++ {
		pop := float64(pages - i)
		if i%4 == 0 {
			pop = 0
		}
		if err := c.Add(i, text(i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
}

// serveGoldens are RankSeeded outputs at fixed seeds, covering both the
// browse (empty query) and query paths under every rule. The rows that
// promote nothing (every "none" row and two selective_k2_r01 seeds)
// date from the serving path before it was rebuilt on internal/policy;
// the rows that promote were re-recorded when ranking moved to the
// bounded merge, whose lazy pool draws (and the coin rule's geometric
// skips) consume the RNG in a different order for the same law — the
// exactness tests in pool_test.go and internal/policy's bounded_test.go
// pin that law. A single skipped, added or reordered RNG draw anywhere
// in candidate assembly or the merge breaks these rows. The six
// uniform rows on the wide queries were recorded before the coin rule's
// candidate scan moved onto the pruned retrieval's visitor: its draws
// see every match across 13 and 16 driving chunks, so a coin rule that
// skipped a chunk would fail them.
var serveGoldens = []struct {
	policy string
	query  string
	seed   uint64
	want   []serveGoldenSlot
}{
	{"selective_k1_r03", "", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {0, 0, true}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}}},
	{"selective_k1_r03", "golden topic", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {0, 0, true}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}}},
	{"selective_k1_r03", "", 2, []serveGoldenSlot{{8, 0, true}, {0, 0, true}, {1, 39, false}, {12, 0, true}, {24, 0, true}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {20, 0, true}}},
	{"selective_k1_r03", "golden topic", 2, []serveGoldenSlot{{28, 0, true}, {0, 0, true}, {1, 39, false}, {4, 0, true}, {8, 0, true}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {32, 0, true}}},
	{"selective_k1_r03", "", 3, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {16, 0, true}, {3, 37, false}, {5, 35, false}, {8, 0, true}, {6, 34, false}, {32, 0, true}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}}},
	{"selective_k1_r03", "golden topic", 3, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {20, 0, true}, {3, 37, false}, {5, 35, false}, {28, 0, true}, {6, 34, false}, {36, 0, true}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}}},
	{"selective_k2_r01", "", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {36, 0, true}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}}},
	{"selective_k2_r01", "golden topic", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {12, 0, true}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}}},
	{"selective_k2_r01", "", 2, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"selective_k2_r01", "golden topic", 2, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"selective_k2_r01", "", 3, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"selective_k2_r01", "golden topic", 3, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"uniform_k1_r03", "", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {9, 31, true}, {7, 33, true}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {10, 30, false}, {11, 29, false}, {8, 0, true}, {13, 27, false}, {14, 26, false}}},
	{"uniform_k1_r03", "golden topic", 1, []serveGoldenSlot{{5, 35, true}, {1, 39, false}, {2, 38, false}, {3, 37, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {30, 10, true}, {14, 26, false}, {15, 25, false}}},
	{"uniform_k1_r03", "", 2, []serveGoldenSlot{{2, 38, false}, {10, 30, true}, {5, 35, false}, {6, 34, false}, {9, 31, false}, {7, 33, true}, {1, 39, true}, {11, 29, false}, {13, 27, false}, {3, 37, true}, {14, 26, false}, {15, 25, false}}},
	{"uniform_k1_r03", "golden topic", 2, []serveGoldenSlot{{1, 39, false}, {3, 37, false}, {26, 14, true}, {6, 34, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {36, 0, true}, {27, 13, true}, {22, 18, true}, {20, 0, true}, {13, 27, false}}},
	{"uniform_k1_r03", "", 3, []serveGoldenSlot{{3, 37, true}, {28, 0, true}, {1, 39, false}, {2, 38, false}, {5, 35, false}, {6, 34, false}, {9, 31, true}, {7, 33, false}, {10, 30, false}, {11, 29, false}, {24, 0, true}, {13, 27, true}}},
	{"uniform_k1_r03", "golden topic", 3, []serveGoldenSlot{{17, 23, true}, {1, 39, false}, {3, 37, false}, {5, 35, false}, {7, 33, false}, {10, 30, false}, {2, 38, true}, {11, 29, false}, {28, 0, true}, {13, 27, false}, {33, 7, true}, {14, 26, false}}},
	{"uniform_k1_r03", "wide deck", 1, []serveGoldenSlot{{287, 1713, true}, {616, 0, true}, {1, 1999, false}, {957, 1043, true}, {2, 1998, false}, {3, 1997, false}, {6, 1994, false}, {167, 1833, true}, {1778, 222, true}, {9, 1991, false}, {11, 1989, false}, {13, 1987, false}}},
	{"uniform_k1_r03", "wide deck", 2, []serveGoldenSlot{{2, 1998, false}, {809, 1191, true}, {799, 1201, true}, {6, 1994, false}, {11, 1989, false}, {397, 1603, true}, {13, 1987, false}, {14, 1986, false}, {17, 1983, false}, {1158, 842, true}, {1508, 0, true}, {18, 1982, false}}},
	{"uniform_k1_r03", "wide deck", 3, []serveGoldenSlot{{1, 1999, false}, {2, 1998, false}, {6, 1994, false}, {7, 1993, false}, {9, 1991, false}, {11, 1989, false}, {13, 1987, false}, {14, 1986, false}, {17, 1983, false}, {1829, 171, true}, {18, 1982, false}, {592, 0, true}}},
	{"uniform_k1_r03", "wide", 1, []serveGoldenSlot{{1, 1999, false}, {2, 1998, false}, {3, 1997, false}, {7, 1993, false}, {449, 1551, true}, {1759, 241, true}, {9, 1991, false}, {1907, 93, true}, {10, 1990, false}, {1883, 117, true}, {11, 1989, false}, {13, 1987, false}}},
	{"uniform_k1_r03", "wide", 2, []serveGoldenSlot{{1, 1999, false}, {647, 1353, true}, {3, 1997, false}, {1651, 349, true}, {6, 1994, false}, {926, 1074, true}, {9, 1991, false}, {10, 1990, false}, {1026, 974, true}, {11, 1989, false}, {13, 1987, false}, {14, 1986, false}}},
	{"uniform_k1_r03", "wide", 3, []serveGoldenSlot{{1, 1999, false}, {3, 1997, false}, {992, 0, true}, {5, 1995, false}, {7, 1993, false}, {10, 1990, false}, {11, 1989, false}, {13, 1987, false}, {14, 1986, false}, {427, 1573, true}, {18, 1982, false}, {19, 1981, false}}},
	{"none", "", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"none", "golden topic", 1, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"none", "", 2, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"none", "golden topic", 2, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"none", "", 3, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
	{"none", "golden topic", 3, []serveGoldenSlot{{1, 39, false}, {2, 38, false}, {3, 37, false}, {5, 35, false}, {6, 34, false}, {7, 33, false}, {9, 31, false}, {10, 30, false}, {11, 29, false}, {13, 27, false}, {14, 26, false}, {15, 25, false}}},
}

// TestServeGoldenDeterminism asserts the rank path — candidate assembly
// through the arm's policy selection and internal/policy's bounded
// merge — reproduces the recorded serve outputs byte-for-byte at fixed
// seeds, browse and query paths alike.
func TestServeGoldenDeterminism(t *testing.T) {
	type corpusKey struct {
		policy string
		wide   bool
	}
	corpora := map[corpusKey]*Corpus{}
	for _, g := range serveGoldens {
		key := corpusKey{g.policy, goldenWide(g.query)}
		c, ok := corpora[key]
		if !ok {
			pol, found := serveGoldenPolicies[g.policy]
			if !found {
				t.Fatalf("unknown golden policy %q", g.policy)
			}
			c = newTestCorpus(t, Config{Shards: 3, Seed: 5, Policy: pol})
			addGoldenPages(t, c, key.wide)
			corpora[key] = c
		}
		got, err := c.RankSeeded(g.query, 12, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(g.want) {
			t.Fatalf("%s query %q seed %d: served %d results, want %d",
				g.policy, g.query, g.seed, len(got), len(g.want))
		}
		for i, w := range g.want {
			if got[i].ID != w.ID || got[i].Popularity != w.Popularity || got[i].Promoted != w.Promoted {
				t.Errorf("%s query %q seed %d slot %d: got %+v, want %+v",
					g.policy, g.query, g.seed, i+1, got[i], w)
			}
		}
	}
}

// TestServeGoldenViaSingleArm: declaring the same policy as an explicit
// one-arm experiment serves the identical bytes — the arms layer adds no
// RNG draws on the single-arm path.
func TestServeGoldenViaSingleArm(t *testing.T) {
	for name, pol := range serveGoldenPolicies {
		for _, wide := range []bool{false, true} {
			c := newTestCorpus(t, Config{
				Shards: 3, Seed: 5,
				Arms: []Arm{{Name: "solo", Policy: pol, Weight: 3}},
			})
			addGoldenPages(t, c, wide)
			for _, g := range serveGoldens {
				if g.policy != name || goldenWide(g.query) != wide {
					continue
				}
				got, armName, err := c.RankUnitSeeded("any-unit", g.query, 12, g.seed)
				if err != nil {
					t.Fatal(err)
				}
				if armName != "solo" {
					t.Fatalf("served by arm %q, want solo", armName)
				}
				for i, w := range g.want {
					if got[i].ID != w.ID || got[i].Promoted != w.Promoted {
						t.Errorf("%s (as arm) query %q seed %d slot %d: got %+v, want %+v",
							name, g.query, g.seed, i+1, got[i], w)
					}
				}
			}
		}
	}
}
