package main

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/serve"
)

// Every answer the service gives is checked. Rank replies are JSON and
// arrive tens of thousands of times a second, so they are read by a small
// allocation-free scanner that accepts any valid JSON object with the
// RankResponse fields in any order, not by encoding/json, whose cost
// would rival the server's.

// rankItem is one served slot as read off the wire.
type rankItem struct {
	id       int
	pop      float64
	promoted bool
}

var errJSON = errors.New("malformed JSON")

type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after optional white space.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string literal and returns its raw (still escaped)
// contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return s.b[start : s.i-1], true
		default:
			s.i++
		}
	}
	return nil, false
}

// num consumes a number literal.
func (s *scanner) num() (float64, bool) {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			s.i++
			continue
		}
		break
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

func (s *scanner) lit(word string) bool {
	s.ws()
	if len(s.b)-s.i >= len(word) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	return false
}

// skip consumes any one value.
func (s *scanner) skip() bool {
	s.ws()
	if s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		_, ok := s.str()
		return ok
	case c == '{':
		return s.object(func([]byte) bool { return s.skip() })
	case c == '[':
		return s.array(s.skip)
	case c == 't':
		return s.lit("true")
	case c == 'f':
		return s.lit("false")
	case c == 'n':
		return s.lit("null")
	default:
		_, ok := s.num()
		return ok
	}
}

// object consumes an object, calling field with each key; field must
// consume the value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat(',') {
			continue
		}
		return s.eat('}')
	}
}

// array consumes an array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(',') {
			continue
		}
		return s.eat(']')
	}
}

// parseRank reads a /v1/rank reply into dst, verifying while it goes
// that the slots count 1..len. It returns the serving arm too.
func parseRank(body []byte, dst []rankItem) (items []rankItem, arm []byte, err error) {
	s := scanner{b: body}
	dst = dst[:0]
	slotsOK := true
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "arm":
			var ok bool
			arm, ok = s.str()
			return ok
		case "results":
			return s.array(func() bool {
				var it rankItem
				slot := -1
				ok := s.object(func(key []byte) bool {
					switch string(key) {
					case "slot":
						f, ok := s.num()
						slot = int(f)
						return ok
					case "id":
						f, ok := s.num()
						it.id = int(f)
						return ok
					case "popularity":
						var ok bool
						it.pop, ok = s.num()
						return ok
					case "promoted":
						if s.lit("true") {
							it.promoted = true
							return true
						}
						return s.lit("false")
					}
					return s.skip()
				})
				dst = append(dst, it)
				if slot != len(dst) {
					slotsOK = false
				}
				return ok
			})
		}
		return s.skip()
	})
	s.ws()
	if !ok || s.i != len(body) {
		return dst, arm, fmt.Errorf("%w: rank reply %.80q", errJSON, body)
	}
	if !slotsOK {
		return dst, arm, fmt.Errorf("rank reply: slots do not count 1..%d", len(dst))
	}
	return dst, arm, nil
}

// checkRank verifies one served list: exactly n results with distinct
// ids. On a corpus nobody is writing to it also requires the
// non-promoted items in non-increasing popularity and every promoted
// item at zero popularity; under concurrent feedback the popularity
// echoed beside an item is read after the order was fixed, so those two
// would flag races that are not errors.
func checkRank(items []rankItem, n int, quiescent bool) error {
	if len(items) != n {
		return fmt.Errorf("rank reply: %d results, want %d", len(items), n)
	}
	last := -1.0
	for i, it := range items {
		for _, prev := range items[:i] {
			if prev.id == it.id {
				return fmt.Errorf("rank reply: page %d served twice", it.id)
			}
		}
		if !quiescent {
			continue
		}
		if it.promoted {
			if it.pop != 0 {
				return fmt.Errorf("rank reply: promoted page %d has popularity %v", it.id, it.pop)
			}
			continue
		}
		if last >= 0 && it.pop > last {
			return fmt.Errorf("rank reply: slot %d popularity %v above the slot before it (%v)", i+1, it.pop, last)
		}
		last = it.pop
	}
	return nil
}

// sameIDs requires the served ids to equal the reference ranking.
func sameIDs(items []rankItem, want []serve.Result) error {
	if len(items) != len(want) {
		return fmt.Errorf("rank reply: %d results, reference has %d", len(items), len(want))
	}
	for i := range items {
		if items[i].id != want[i].ID || items[i].promoted != want[i].Promoted {
			return fmt.Errorf("rank reply: slot %d is page %d (promoted %v), reference says %d (promoted %v)",
				i+1, items[i].id, items[i].promoted, want[i].ID, want[i].Promoted)
		}
	}
	return nil
}

// checkBatch decodes a binary batch reply and checks every list in it.
func checkBatch(body []byte, subs int, quiescent bool, scratch []rankItem) ([]serve.RankResponse, error) {
	resps, err := serve.DecodeRankBatchResponse(body)
	if err != nil {
		return nil, err
	}
	if len(resps) != subs {
		return nil, fmt.Errorf("batch reply: %d responses, want %d", len(resps), subs)
	}
	for i := range resps {
		scratch = scratch[:0]
		for _, it := range resps[i].Results {
			scratch = append(scratch, rankItem{id: it.ID, pop: it.Popularity, promoted: it.Promoted})
		}
		if err := checkRank(scratch, rankN, quiescent); err != nil {
			return nil, fmt.Errorf("sub-request %d: %w", i, err)
		}
	}
	return resps, nil
}

// parseAccepted reads a JSON feedback acknowledgement.
func parseAccepted(body []byte) (int, error) {
	s := scanner{b: body}
	accepted := -1
	ok := s.object(func(key []byte) bool {
		if string(key) == "accepted" {
			f, ok := s.num()
			accepted = int(f)
			return ok
		}
		return s.skip()
	})
	if !ok || accepted < 0 {
		return 0, fmt.Errorf("%w: feedback reply %.80q", errJSON, body)
	}
	return accepted, nil
}
