package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/randutil"
	"repro/internal/serve"
)

// The reference corpus deck-20k and the request pools every workload
// draws from. Everything here is a pure function of the -seed flag: the
// program under test only ever sees the generated inputs.
const (
	deckPages    = 20000
	deckShards   = 8
	clusterPages = 5000 // cluster-quorum: 3 nodes x 4 shards replicate every add
	clusterNodes = 3
	clusterShard = 4

	headTerms    = 96 // head vocabulary; each term matches ~19% of pages
	termsPerPage = 18
	zeroEvery    = 50 // every 50th page starts in the zero-awareness pool

	rankN      = 10
	unitPool   = 64
	hotQueries = 64   // distinct hot query slots, well inside the 256-entry cache
	batchSubs  = 32   // sub-requests per /v1/rank/batch call
	rankPool   = 4096 // pre-encoded single rank requests per client
	batchPool  = 1140 // pre-encoded batches per client: whole passes over a client's share of the 4,560 pairs
	loopEvents = 20   // JSON feedback events per live-loop post (two result lists)
	bulkEvents = 1024 // binary feedback events per ingest post
	bulkPool   = 128  // pre-encoded ingest posts per client
)

// Seed salts keep the generators independent of one another.
const (
	saltPages = 0x70616765 + iota
	saltHot
	saltCold
	saltRank
	saltBulk
	saltLoop
	saltQuality
)

type page struct {
	id   int
	text string
	pop  float64
}

func headTerm(i int) string { return "h" + strconv.Itoa(100 + i)[1:] }

// genPages builds the corpus: page i has Zipf popularity n/(i+1), every
// zeroEvery-th page zero popularity (the promotion pool), and a text of
// one unique token plus termsPerPage distinct head terms.
func genPages(seed uint64, n int) []page {
	rng := randutil.New(seed ^ saltPages)
	terms := make([]int, headTerms)
	for i := range terms {
		terms[i] = i
	}
	pages := make([]page, n)
	var sb strings.Builder
	for i := range pages {
		// Partial Fisher-Yates: the first termsPerPage entries become a
		// uniform sample without replacement.
		for j := 0; j < termsPerPage; j++ {
			k := j + rng.Intn(headTerms-j)
			terms[j], terms[k] = terms[k], terms[j]
		}
		sb.Reset()
		sb.WriteString("u")
		sb.WriteString(strconv.Itoa(i))
		for _, t := range terms[:termsPerPage] {
			sb.WriteByte(' ')
			sb.WriteString(headTerm(t))
		}
		pop := float64(n) / float64(i+1)
		if i%zeroEvery == zeroEvery-1 {
			pop = 0
		}
		pages[i] = page{id: i, text: sb.String(), pop: pop}
	}
	return pages
}

// quality is the probability that a visiting user clicks the page: the
// paper's page quality, fixed per (seed, page).
func quality(seed uint64, id int) float64 {
	x := seed ^ saltQuality + uint64(id)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 0.05 + 0.55*float64(x>>11)/(1<<53)
}

// genHotQueries returns the hot set: a quarter browse (""), the rest
// head singles and pairs, all distinct among the non-empty ones.
func genHotQueries(seed uint64) []string {
	rng := randutil.New(seed ^ saltHot)
	qs := make([]string, 0, hotQueries)
	seen := map[string]bool{}
	for len(qs) < hotQueries {
		var q string
		switch {
		case len(qs)%4 == 0:
			qs = append(qs, "")
			continue
		case len(qs)%4 == 1:
			q = headTerm(rng.Intn(headTerms))
		default:
			a, b := rng.Intn(headTerms), rng.Intn(headTerms)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			q = headTerm(a) + " " + headTerm(b)
		}
		if seen[q] {
			continue
		}
		seen[q] = true
		qs = append(qs, q)
	}
	return qs
}

// genColdQueries returns every head-term pair in seeded shuffled order:
// 4,560 distinct queries, 18x the default query cache, cycled so the
// cache never holds the next one. Each client cycles its own share of
// the list (clientShare): were two clients to cycle the same list, the
// one behind would find the leader's queries still cached, speed up and
// settle into its slipstream, and "cold" would quietly turn half hot.
func genColdQueries(seed uint64) []string {
	qs := make([]string, 0, headTerms*(headTerms-1)/2)
	for a := 0; a < headTerms; a++ {
		for b := a + 1; b < headTerms; b++ {
			qs = append(qs, headTerm(a)+" "+headTerm(b))
		}
	}
	rng := randutil.New(seed ^ saltCold)
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// clientShare is client's contiguous share of a query list split among
// clients.
func clientShare(queries []string, client, clients int) []string {
	return queries[client*len(queries)/clients : (client+1)*len(queries)/clients]
}

// rankReq is one generated rank request and its wire form.
type rankReq struct {
	query string
	unit  string
	seed  uint64
	wire  []byte // complete HTTP/1.1 request
}

// httpRequest frames body as a keep-alive HTTP/1.1 POST.
func httpRequest(path, contentType string, body []byte) []byte {
	b := make([]byte, 0, len(body)+128)
	b = append(b, "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Type: "...)
	b = append(b, contentType...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

func rankBody(query, unit string, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"query":%q,"n":%d,"unit":%q,"seed":%d}`, query, rankN, unit, seed))
}

// genRankReqs pre-encodes count single rank requests for one client,
// cycling the query list with a fresh unit and merge seed per request.
func genRankReqs(seed uint64, client int, queries []string, count int) []rankReq {
	rng := randutil.New(seed ^ saltRank + uint64(client)*0x9e3779b97f4a7c15)
	reqs := make([]rankReq, count)
	for i := range reqs {
		r := rankReq{
			query: queries[i%len(queries)],
			unit:  "u" + strconv.Itoa(rng.Intn(unitPool)),
			seed:  rng.Uint64() >> 11, // 53 bits: exact through any JSON number path
		}
		r.wire = httpRequest("/v1/rank", "application/json", rankBody(r.query, r.unit, r.seed))
		reqs[i] = r
	}
	return reqs
}

// batchReq is one generated binary rank batch.
type batchReq struct {
	subs []rankReq // wire unset; the batch carries them
	wire []byte
}

// genBatchReqs pre-encodes count binary batches of batchSubs
// sub-requests each, walking the query list cyclically so consecutive
// batches never repeat a query until the list wraps.
func genBatchReqs(seed uint64, client int, queries []string, count int) []batchReq {
	rng := randutil.New(seed ^ saltRank + 77 + uint64(client)*0x9e3779b97f4a7c15)
	out := make([]batchReq, count)
	pos := 0
	reqs := make([]serve.RankRequest, batchSubs)
	for i := range out {
		subs := make([]rankReq, batchSubs)
		for j := range subs {
			s := rankReq{
				query: queries[pos%len(queries)],
				unit:  "u" + strconv.Itoa(rng.Intn(unitPool)),
				seed:  rng.Uint64() >> 11,
			}
			pos++
			subs[j] = s
			sd := s.seed
			reqs[j] = serve.RankRequest{Query: s.query, N: rankN, Unit: s.unit, Seed: &sd}
		}
		body := serve.AppendRankBatchRequest(nil, reqs)
		out[i] = batchReq{subs: subs, wire: httpRequest("/v1/rank/batch", serve.BatchContentType, body)}
	}
	return out
}

// bulkPost is one generated binary feedback batch and the totals a 202
// for it acknowledges.
type bulkPost struct {
	wire        []byte
	events      int
	impressions uint64
	clicks      uint64
}

// genBulkPosts pre-encodes count ingest posts: squared-uniform page skew
// (low ids, the popular head, take most of the traffic), one impression
// per event, a click on a tenth of them.
func genBulkPosts(seed uint64, client, pages, count int) []bulkPost {
	rng := randutil.New(seed ^ saltBulk + uint64(client)*0x9e3779b97f4a7c15)
	out := make([]bulkPost, count)
	events := make([]serve.Event, bulkEvents)
	for i := range out {
		p := bulkPost{events: bulkEvents}
		for j := range events {
			u := rng.Float64()
			e := serve.Event{Page: int(u * u * float64(pages)), Slot: 1 + rng.Intn(rankN), Impressions: 1}
			if rng.Bernoulli(0.10) {
				e.Clicks = 1
			}
			p.impressions += uint64(e.Impressions)
			p.clicks += uint64(e.Clicks)
			events[j] = e
		}
		body := serve.AppendFeedbackBatchRequest(nil, events)
		p.wire = httpRequest("/v1/feedback/batch", serve.BatchContentType, body)
		out[i] = p
	}
	return out
}

// meanMatchSet is the mean number of pages a query of the list matches
// (all its terms present), computed from the generated texts alone.
func meanMatchSet(pages []page, queries []string) float64 {
	has := make(map[string][]bool, headTerms)
	for i, p := range pages {
		for _, t := range strings.Fields(p.text)[1:] {
			if has[t] == nil {
				has[t] = make([]bool, len(pages))
			}
			has[t][i] = true
		}
	}
	total := 0
	for _, q := range queries {
		terms := strings.Fields(q)
		for i := range pages {
			match := true
			for _, t := range terms {
				if has[t] == nil || !has[t][i] {
					match = false
					break
				}
			}
			if match {
				total++
			}
		}
	}
	return float64(total) / float64(len(queries))
}
