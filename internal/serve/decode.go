// Hand-written JSON decoding for the hot HTTP requests — the mirror of
// encode.go. RankRequest and FeedbackRequest are flat, fixed schemas, so
// one forward pass over the body with strconv-free integer parsing
// replaces encoding/json's reflective Unmarshal, which was most of the
// /v1/feedback handler's cost.
//
// The scanner is deliberately conservative. It accepts only the
// canonical JSON a machine writes for these schemas: exact-case known
// keys, each at most once; plain ASCII strings with no escapes; integers
// with no fraction or exponent that fit the field; no null. Anything
// else is DECLINED — not an error — and the caller hands the body to
// json.Unmarshal, so every accepted value, every 400 message and every
// status code is encoding/json's, byte for byte. The contract the
// differential fuzz targets pin: scanner accepts ⇒ encoding/json
// accepts, with an equal value.
//
// Decoded strings are always copies (or interned arm names), never
// aliases of the body buffer, which is pooled and overwritten by the
// next request. The scanner assigns every field of every element it
// produces, so decoding into a reused slice cannot leak a previous
// request's values into fields the body omits — the hazard that forbids
// pooling json.Unmarshal's destination.
package serve

import (
	"encoding/json"
	"math"
)

// scanner is a cursor over a JSON body. Its methods report false on
// anything outside the canonical subset; after a false the scan is
// abandoned, so they need not leave the cursor anywhere in particular.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c, skipping whitespace before it. Machine-written JSON
// rarely has any, so the byte is tried in place first.
func (s *scanner) lit(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// plain marks the bytes a string literal may carry verbatim: printable
// ASCII except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes a string literal and returns its contents, aliasing the
// body: callers copy before keeping it. Escapes, control characters and
// non-ASCII bytes decline (encoding/json unescapes, rejects and
// UTF-8-repairs them respectively).
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	// The cursor lives in a local across the loop: through s it would be
	// stored back on every byte.
	data, i := s.data, s.i
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i == len(data) || data[i] != '"' {
		return nil, false
	}
	start := s.i
	s.i = i + 1
	return data[start:i], true
}

// key consumes `"name":` and returns the name.
func (s *scanner) key() ([]byte, bool) {
	k, ok := s.str()
	return k, ok && s.lit(':')
}

// digits consumes an unsigned integer literal at the cursor: digits
// only, no leading zeros, within uint64. A fraction or exponent is left
// unconsumed for the caller's ',' / '}' check to refuse.
func (s *scanner) digits() (uint64, bool) {
	data, i := s.data, s.i
	var v uint64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		if v > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	n := i - s.i
	ok := n == 1 || (n > 1 && data[s.i] != '0')
	s.i = i
	return v, ok
}

// uint consumes an unsigned integer value.
func (s *scanner) uint() (uint64, bool) {
	s.ws()
	return s.digits()
}

// int consumes a signed integer value within the platform int.
func (s *scanner) int() (int, bool) {
	neg := s.lit('-')
	v, ok := s.digits()
	switch {
	case !ok:
		return 0, false
	case neg && v <= -math.MinInt:
		return int(-v), true
	case !neg && v <= math.MaxInt:
		return int(v), true
	}
	return 0, false
}

// more steps past one member of an object or array closed by end: it
// consumes either a ',' (true, true: another member follows) or end
// (false, true: done).
func (s *scanner) more(end byte) (again, ok bool) {
	if s.lit(',') {
		return true, true
	}
	return false, s.lit(end)
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.data)
}

// internArm returns arm as a string without allocating when it repeats
// prev or names a configured arm (the canonical name is shared).
func internArm(arms map[string]*armState, arm []byte, prev string) string {
	if string(arm) == prev {
		return prev
	}
	if a, ok := arms[string(arm)]; ok {
		return a.name
	}
	return string(arm)
}

// reuseString returns b as a string, sharing prev when they are equal:
// a feedback post usually carries one client's unit on every event.
func reuseString(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// object scans one flat JSON object, calling field with each key, the
// cursor on its value. field consumes the value and returns the key's
// bit (false for an unknown key or a value outside the subset). A
// repeated key declines: encoding/json would keep the last value, and
// declining keeps that semantics without reproducing it.
func (s *scanner) object(field func(key []byte) (bit uint8, ok bool)) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint8
	for again := true; again; {
		k, ok := s.key()
		if !ok {
			return false
		}
		bit, ok := field(k)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if again, ok = s.more('}'); !ok {
			return false
		}
	}
	return true
}

// rankRequest scans one RankRequest object, assigning every field of
// *req. A present seed is stored in *seed and req.Seed pointed at it.
func (s *scanner) rankRequest(req *RankRequest, seed *uint64, arms map[string]*armState) bool {
	*req = RankRequest{}
	return s.object(func(key []byte) (bit uint8, ok bool) {
		var v []byte
		switch string(key) {
		case "query":
			v, ok = s.str()
			req.Query = string(v)
			return 1 << 0, ok
		case "n":
			req.N, ok = s.int()
			return 1 << 1, ok
		case "unit":
			v, ok = s.str()
			req.Unit = string(v)
			return 1 << 2, ok
		case "arm":
			v, ok = s.str()
			req.Arm = internArm(arms, v, "")
			return 1 << 3, ok
		case "seed":
			*seed, ok = s.uint()
			req.Seed = seed
			return 1 << 4, ok
		}
		return 0, false
	})
}

// event scans one Event object, assigning every field of *e. prev is
// the previous event of the same post, whose arm and unit strings are
// shared when equal.
func (s *scanner) event(e, prev *Event, arms map[string]*armState) bool {
	*e = Event{}
	return s.object(func(key []byte) (bit uint8, ok bool) {
		var v []byte
		switch string(key) {
		case "page":
			e.Page, ok = s.int()
			return 1 << 0, ok
		case "slot":
			e.Slot, ok = s.int()
			return 1 << 1, ok
		case "impressions":
			e.Impressions, ok = s.int()
			return 1 << 2, ok
		case "clicks":
			e.Clicks, ok = s.int()
			return 1 << 3, ok
		case "arm":
			v, ok = s.str()
			e.Arm = internArm(arms, v, prev.Arm)
			return 1 << 4, ok
		case "unit":
			v, ok = s.str()
			e.Unit = reuseString(v, prev.Unit)
			return 1 << 5, ok
		}
		return 0, false
	})
}

// scanRankRequest decodes a canonical /v1/rank body into *req (see
// scanner.rankRequest); false declines.
func scanRankRequest(data []byte, req *RankRequest, seed *uint64, arms map[string]*armState) bool {
	s := scanner{data: data}
	return s.rankRequest(req, seed, arms) && s.end()
}

// scanFeedback decodes a canonical feedback body — {"events":[ … ]},
// with an empty array or an empty object accepted as no events —
// appending the events to dst[:0]; false declines.
func scanFeedback(data []byte, dst []Event, arms map[string]*armState) ([]Event, bool) {
	s := scanner{data: data}
	dst = dst[:0]
	if !s.lit('{') {
		return dst, false
	}
	if s.lit('}') {
		return dst, s.end()
	}
	if k, ok := s.key(); !ok || string(k) != "events" || !s.lit('[') {
		return dst, false
	}
	none := Event{}
	if !s.lit(']') {
		for again := true; again; {
			prev := &none
			if n := len(dst); n > 0 {
				prev = &dst[n-1]
			}
			dst = append(dst, Event{})
			// prev may point into the array append just left; it is only
			// read, and that array still holds the event.
			if !s.event(&dst[len(dst)-1], prev, arms) {
				return dst, false
			}
			var ok bool
			if again, ok = s.more(']'); !ok {
				return dst, false
			}
		}
	}
	return dst, s.lit('}') && s.end()
}

// decodeRankRequest is the /v1/rank body decoder: the scanner, or
// json.Unmarshal for whatever it declines.
func decodeRankRequest(data []byte, req *RankRequest, seed *uint64, arms map[string]*armState) error {
	if scanRankRequest(data, req, seed, arms) {
		return nil
	}
	*req = RankRequest{}
	return json.Unmarshal(data, req)
}

// decodeFeedback is the JSON feedback body decoder: the scanner into
// *pool (kept for the next request), or json.Unmarshal into a fresh
// slice — never into the pool, whose stale elements Unmarshal would not
// zero.
func decodeFeedback(data []byte, pool *[]Event, arms map[string]*armState) ([]Event, error) {
	var ok bool
	if *pool, ok = scanFeedback(data, *pool, arms); ok {
		return *pool, nil
	}
	var body FeedbackRequest
	err := json.Unmarshal(data, &body)
	return body.Events, err
}
