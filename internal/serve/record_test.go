package serve

import (
	"bytes"
	"testing"
)

// appendWALRecord re-encodes a decoded record with its kind's encoder.
func appendWALRecord(dst []byte, r walRecord) []byte {
	switch r.kind {
	case recKindAdd:
		return appendAddRecord(dst, r.add, r.nanos)
	case recKindEvent:
		return appendEventRecord(dst, r.event, r.nanos)
	default:
		return appendRemoveRecord(dst, r.remove, r.nanos)
	}
}

// FuzzDecodeWALRecord throws arbitrary bytes at the WAL record decoder
// — the parser boot recovery, replication and offline replay run over
// bytes read from disk or a peer. It must never panic, and any payload
// it accepts reaches a fixed point after one canonical re-encode: the
// re-encoded bytes decode, and encode again to themselves.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add(appendAddRecord(nil, AddRecord{ID: 7, Text: "alpha beta π", Popularity: 3.5, Birth: 21}, 1_700_000_000_000_000_000))
	f.Add(appendAddRecord(nil, AddRecord{ID: 0, Text: "", Popularity: 0, Birth: 0}, 0))
	f.Add(appendEventRecord(nil, Event{Page: 7, Slot: 2, Impressions: 4, Clicks: -1, Arm: "treatment"}, 42))
	f.Add(appendRemoveRecord(nil, 7, -3))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeWALRecord(data)
		if err != nil {
			return
		}
		canon := appendWALRecord(nil, rec)
		again, err := decodeWALRecord(canon)
		if err != nil {
			t.Fatalf("canonical re-encode %x of %x does not decode: %v", canon, data, err)
		}
		if b := appendWALRecord(nil, again); !bytes.Equal(b, canon) {
			t.Fatalf("re-encode not a fixed point:\nfirst  %x\nsecond %x", canon, b)
		}
	})
}
