// Websearch: a small end-to-end search engine with link-based popularity.
//
// This example wires together the full substrate stack: a preferential-
// attachment web graph, PageRank as the popularity measure, an inverted
// index over synthetic topic pages, and randomized rank promotion at
// query time. New pages (no in-links yet, zero PageRank) form the
// selective promotion pool and surface at random positions in results.
//
// Run with: go run ./examples/websearch
package main

import (
	"fmt"
	"log"

	shuffledeck "repro"
	"repro/internal/pagerank"
	"repro/internal/randutil"
	"repro/internal/searchidx"
)

func main() {
	rng := randutil.New(99)

	// 1. Synthesize a web graph with rich-get-richer link structure.
	const established = 300
	graph, err := pagerank.PreferentialAttachment(established, 4, rng)
	if err != nil {
		log.Fatal(err)
	}
	pr := pagerank.Compute(graph)
	fmt.Printf("web graph: %d pages, %d links, PageRank converged in %d iterations\n",
		graph.NumNodes(), graph.NumEdges(), pr.Iterations)

	// 2. Index the pages. Every page matches the topic query "gophers";
	// a few carry an extra term.
	ix := searchidx.NewIndex()
	for id := 0; id < established; id++ {
		text := fmt.Sprintf("gophers page %d", id)
		if id%7 == 0 {
			text += " burrow"
		}
		if err := ix.Add(searchidx.Document{ID: id, Text: text}); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Add brand-new pages: indexed, but with no in-links and no
	// PageRank — invisible under pure popularity ranking.
	for id := established; id < established+5; id++ {
		if err := ix.Add(searchidx.Document{ID: id, Text: "gophers fresh content"}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d documents, %d terms (5 brand-new pages with zero PageRank)\n\n",
		ix.Len(), ix.Terms())

	// 4. Rank: the index retrieves the query's matches, and the public
	// Ranker orders them by PageRank and merges in the promotion pool —
	// the pages with zero PageRank, which no user has found yet.
	pagerankOf := func(id int) float64 {
		if id < len(pr.Ranks) {
			return pr.Ranks[id]
		}
		return 0
	}
	var matches []shuffledeck.PageStat
	for _, id := range ix.Retrieve("gophers") {
		p := pagerankOf(id)
		matches = append(matches, shuffledeck.PageStat{ID: id, Popularity: p, Unexplored: p == 0})
	}
	newRanker := func(pol shuffledeck.Policy) *shuffledeck.Ranker {
		r, err := shuffledeck.NewRanker(pol, 99)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	show := func(name string, pol shuffledeck.Policy) {
		res := newRanker(pol).Rank(matches)
		fmt.Printf("%s — top 10 of %d results:\n", name, len(res))
		for i := 0; i < 10 && i < len(res); i++ {
			tag := ""
			if pagerankOf(res[i]) == 0 {
				tag = "  <- promoted new page"
			}
			fmt.Printf("  %2d. page %-4d pagerank %.5f%s\n", i+1, res[i], pagerankOf(res[i]), tag)
		}
		fmt.Println()
	}

	show("deterministic popularity ranking", shuffledeck.Policy{Rule: shuffledeck.RuleNone, K: 1})
	show("recommended promotion (selective, k=2, r=0.1)", shuffledeck.RecommendedSafe())
	show("aggressive promotion (selective, k=2, r=0.5)", shuffledeck.Policy{Rule: shuffledeck.RuleSelective, K: 2, R: 0.5})

	// 5. Where do the new pages land on average under the recommendation?
	const trials = 2000
	ranker := newRanker(shuffledeck.RecommendedSafe())
	sum := 0
	count := 0
	for t := 0; t < trials; t++ {
		for pos, id := range ranker.Rank(matches) {
			if pagerankOf(id) == 0 {
				sum += pos + 1
				count++
			}
		}
	}
	fmt.Printf("across %d queries, promoted pages appeared at mean position %.1f of %d\n",
		trials, float64(sum)/float64(count), ix.Len())
	fmt.Println("(deterministic ranking would pin them at the very bottom forever)")
}
