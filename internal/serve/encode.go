// Append-based JSON encoding for the hot HTTP responses. encoding/json
// walks types reflectively and buffers through an Encoder per call; the
// /rank reply has a fixed shape, so appending it into a pooled buffer
// with strconv costs no allocation at all. The output is plain JSON that
// any decoder (including encoding/json) reads back; string and float
// encodings follow encoding/json's conventions so switching encoders is
// invisible to clients.
package serve

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// appendRankResponse appends the /rank response body for results to b:
// the wire form of RankResponse, one object per served slot.
func appendRankResponse(b []byte, query, arm string, epoch uint64, results []Result) []byte {
	return append(appendRankBody(b, query, arm, epoch, results), '\n')
}

// appendRankBody appends one RankResponse object without the trailing
// newline — the element form the batch endpoint joins into its
// {"responses":[...]} array.
func appendRankBody(b []byte, query, arm string, epoch uint64, results []Result) []byte {
	b = append(b, `{"query":`...)
	b = appendJSONString(b, query)
	b = append(b, `,"arm":`...)
	b = appendJSONString(b, arm)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"results":[`...)
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"slot":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(res.ID), 10)
		b = append(b, `,"popularity":`...)
		b = appendJSONFloat(b, res.Popularity)
		b = append(b, `,"promoted":`...)
		b = strconv.AppendBool(b, res.Promoted)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// appendFeedbackResponse appends the /feedback response body to b: the
// wire form of FeedbackResponse.
func appendFeedbackResponse(b []byte, accepted int) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	return append(b, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, control characters, invalid UTF-8 (as U+FFFD), the HTML
// characters <, > and & (encoding/json's default SetEscapeHTML(true)
// behavior, which this encoder replaced on the wire) and the JS line
// separators U+2028/U+2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control chars plus <, >, & — the latter match
				// encoding/json's HTML-safe default.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f in encoding/json's float format: %g-style
// with the exponent form only outside [1e-6, 1e21) and the exponent's
// leading zero trimmed. Non-finite values (which valid corpus state never
// produces — Corpus.Add refuses a popularity that is negative or not
// finite) encode as 0 rather than emitting invalid JSON.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
