package serve

import (
	"bytes"
	"math"
	"testing"
)

// TestDecodeWALRecordRejectsUnplaceableAdds: an add whose birth lies
// outside the search index's uint32 id range, or whose popularity is
// negative or non-finite, fails to decode — the applier could not place
// it — while the extremes of the valid ranges still decode. So does a
// varint padded past its minimal encoding, which would not re-encode to
// the logged bytes.
func TestDecodeWALRecordRejectsUnplaceableAdds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		birth int
		pop   float64
		ok    bool
	}{
		{"birth -8", -8, 1, false},
		{"birth -1", -1, 0, false},
		{"birth past uint32", math.MaxUint32 + 1, 0, false},
		{"negative popularity", 4, -1, false},
		{"NaN popularity", 4, math.NaN(), false},
		{"+Inf popularity", 4, math.Inf(1), false},
		{"-Inf popularity", 4, math.Inf(-1), false},
		{"birth 0, popularity 0", 0, 0, true},
		{"largest birth", math.MaxUint32, math.MaxFloat64, true},
	} {
		_, err := decodeWALRecord(appendAddRecord(nil, AddRecord{ID: 9, Text: "page", Popularity: tc.pop, Birth: tc.birth}, 1))
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Remove record for page 1 with its id padded to two bytes.
	if _, err := decodeWALRecord([]byte{recKindRemove, 2, 0x82, 0x00}); err == nil {
		t.Error("a non-minimal varint decoded")
	}
}

// TestFollowerRefusesUnplaceableAdd: a replicated add with a negative
// birth is refused by ApplyReplicatedAsync before the follower logs it.
// Logged, it would panic the follower's applier, and every restart would
// replay it into the same panic.
func TestFollowerRefusesUnplaceableAdd(t *testing.T) {
	cfg := applyConfig()
	cfg.Durability = Durability{DataDir: t.TempDir(), FsyncMode: "none", SnapshotInterval: -1}
	follower := newTestCorpus(t, cfg)
	for i := 0; i < follower.Shards(); i++ {
		follower.SetShardWritable(i, false)
	}
	a := AddRecord{ID: 5, Text: "hostile page", Popularity: 1, Birth: -8}
	shard := follower.ShardOf(a.ID)
	frames := []ReplFrame{{LSN: 1, Payload: appendAddRecord(nil, a, 1)}}
	if _, err := follower.ApplyReplicatedAsync(shard, frames); err == nil {
		t.Fatal("a replicated add born at -8 was accepted")
	}
	follower.Sync()
	if lsn := follower.CommittedLSN(shard); lsn != 0 {
		t.Fatalf("the refused frame reached the follower's log (committed lsn %d)", lsn)
	}
}

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
