package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// TestDecodeSnapshotRejectsUnplaceablePages: a snapshot whose pages the
// serving layer could not restore — a birth outside the search index's
// uint32 id range, a negative or non-finite popularity, a page id that
// appears twice — fails to decode, with a valid CRC, while the extremes
// of the valid ranges still decode.
func TestDecodeSnapshotRejectsUnplaceablePages(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(p []PageRecord) []PageRecord
		ok   bool
	}{
		{"birth -8", func(p []PageRecord) []PageRecord { p[1].Birth = -8; return p }, false},
		{"birth past uint32", func(p []PageRecord) []PageRecord { p[1].Birth = math.MaxUint32 + 1; return p }, false},
		{"negative popularity", func(p []PageRecord) []PageRecord { p[0].Popularity = -0.5; return p }, false},
		{"NaN popularity", func(p []PageRecord) []PageRecord { p[0].Popularity = math.NaN(); return p }, false},
		{"+Inf popularity", func(p []PageRecord) []PageRecord { p[0].Popularity = math.Inf(1); return p }, false},
		{"repeated page id", func(p []PageRecord) []PageRecord {
			dup := p[0]
			dup.Birth = 7
			return append(p, dup)
		}, false},
		{"largest birth", func(p []PageRecord) []PageRecord { p[1].Birth = math.MaxUint32; return p }, true},
		{"unchanged", func(p []PageRecord) []PageRecord { return p }, true},
	} {
		s := testSnapshot(42)
		s.Pages = tc.mut(s.Pages)
		_, err := DecodeSnapshot(EncodeSnapshot(s))
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestDecodeSnapshotRejectsNonCanonicalBytes: an aware flag other than 0
// or 1 and a varint padded past its minimal length both fail, CRC
// notwithstanding — neither would re-encode to the bytes it came from.
func TestDecodeSnapshotRejectsNonCanonicalBytes(t *testing.T) {
	s := &Snapshot{LSN: 3, Pages: []PageRecord{{ID: 1, Text: "a", Birth: 2, Aware: true}}}
	enc := EncodeSnapshot(s)
	body := enc[:len(enc)-4]
	// The aware byte follows the page's id, text, popularity and birth.
	aware := len(snapMagic) + 1 + 4 + 1 + 1 + 2 + 8 + 1
	if body[aware] != 1 {
		t.Fatalf("layout moved: byte %d is %d, want the aware flag", aware, body[aware])
	}
	flagged := bytes.Clone(body)
	flagged[aware] = 2
	// The LSN (3) padded to two bytes.
	padded := append([]byte(snapMagic+"\x01\x83\x00"), body[len(snapMagic)+2:]...)
	for name, b := range map[string][]byte{"aware byte 2": flagged, "padded varint": padded} {
		if _, err := DecodeSnapshot(withCRC(b)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// withCRC returns body followed by its CRC trailer, in a fresh array.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, crcTable))
}

// FuzzDecodeSnapshot throws arbitrary bytes at the snapshot decoder —
// the parser boot recovery runs over disk bytes and a replication
// follower over a leader's catch-up snapshot. Each input is decoded as
// given and again with its last four bytes replaced by a valid CRC, so
// mutations reach the body parser. The decoder must never panic; any
// input it accepts must re-encode to exactly the same bytes, and every
// page it accepts must pass CheckPage under a distinct id.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(testSnapshot(42)))
	f.Add(EncodeSnapshot(&Snapshot{}))
	f.Add(EncodeSnapshot(&Snapshot{LSN: 1 << 40, Pages: []PageRecord{{ID: -3, Text: "π ranking", Popularity: 1e300, Birth: math.MaxUint32, Impressions: -1, FirstImpNanos: 1 << 62}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		if len(data) >= 4 {
			checkDecoded(t, withCRC(data[:len(data)-4]))
		}
	})
}

func checkDecoded(t *testing.T, data []byte) {
	s, err := DecodeSnapshot(data)
	if err != nil {
		return
	}
	if re := EncodeSnapshot(s); !bytes.Equal(re, data) {
		t.Fatalf("accepted snapshot re-encodes differently:\ninput %x\nagain %x", data, re)
	}
	seen := make(map[int]bool, len(s.Pages))
	for _, p := range s.Pages {
		if err := CheckPage(p.ID, p.Birth, p.Popularity); err != nil {
			t.Fatalf("accepted page: %v", err)
		}
		if seen[p.ID] {
			t.Fatalf("accepted page %d twice", p.ID)
		}
		seen[p.ID] = true
	}
}
