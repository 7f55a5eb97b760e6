// WAL record codec. Each WAL frame carries exactly one record: a page
// addition or a feedback event, prefixed by a kind byte and the
// group-commit timestamp (the clock applyEvent runs on, so recovery and
// replay reproduce time-to-first-click telemetry exactly). Integers are
// zig-zag varints — feedback events are logged BEFORE validation, so
// negative counts from a buggy client must round-trip for the dropped
// counter to recover exactly.
package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/store"
	"repro/internal/wire"
)

const (
	recKindAdd    = 1
	recKindEvent  = 2
	recKindRemove = 3
)

// walRecord is one decoded WAL frame.
type walRecord struct {
	kind   byte
	nanos  int64
	add    AddRecord // kind == recKindAdd
	event  Event     // kind == recKindEvent
	remove int       // kind == recKindRemove: the deleted page id
}

// appendAddRecord encodes a page addition stamped at nanos.
func appendAddRecord(dst []byte, a AddRecord, nanos int64) []byte {
	dst = append(dst, recKindAdd)
	dst = binary.AppendVarint(dst, nanos)
	dst = binary.AppendVarint(dst, int64(a.ID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.Popularity))
	dst = binary.AppendVarint(dst, int64(a.Birth))
	return wire.AppendString(dst, a.Text)
}

// appendRemoveRecord encodes a page removal stamped at nanos.
func appendRemoveRecord(dst []byte, id int, nanos int64) []byte {
	dst = append(dst, recKindRemove)
	dst = binary.AppendVarint(dst, nanos)
	return binary.AppendVarint(dst, int64(id))
}

// appendEventRecord encodes a feedback event stamped at nanos. The
// event's Unit is deliberately NOT encoded: it is admission-control
// metadata (provenance, rate limiting) consumed before logging, so the
// record format — and therefore recovery and offline replay — is
// unchanged by the defenses.
func appendEventRecord(dst []byte, e Event, nanos int64) []byte {
	dst = append(dst, recKindEvent)
	dst = binary.AppendVarint(dst, nanos)
	dst = binary.AppendVarint(dst, int64(e.Page))
	dst = binary.AppendVarint(dst, int64(e.Slot))
	dst = binary.AppendVarint(dst, int64(e.Impressions))
	dst = binary.AppendVarint(dst, int64(e.Clicks))
	return wire.AppendString(dst, e.Arm)
}

// decodeWALRecord parses one frame payload with the same strict cursor
// (wire.Reader) the snapshot decoder uses. The WAL layer already
// CRC-verified the payload, so a parse failure means a version skew or
// a bug, not bit rot — callers treat it as unrecoverable. An add whose
// birth or popularity the corpus could not place fails here too
// (store.CheckPage), so replication refuses it before it is logged.
// Strings are copied out by the reader, so the decoded record does not
// alias the caller's buffer.
func decodeWALRecord(p []byte) (walRecord, error) {
	if len(p) == 0 {
		return walRecord{}, fmt.Errorf("serve: empty WAL record")
	}
	d := wire.NewReader(p, 1)
	rec := walRecord{kind: p[0], nanos: d.Varint()}
	switch rec.kind {
	case recKindAdd:
		rec.add = AddRecord{
			ID:         int(d.Varint()),
			Popularity: d.Float64(),
			Birth:      int(d.Varint()),
			Text:       d.String(),
		}
	case recKindEvent:
		rec.event = Event{
			Page:        int(d.Varint()),
			Slot:        int(d.Varint()),
			Impressions: int(d.Varint()),
			Clicks:      int(d.Varint()),
			Arm:         d.String(),
		}
	case recKindRemove:
		rec.remove = int(d.Varint())
	default:
		return walRecord{}, fmt.Errorf("serve: unknown WAL record kind %d", rec.kind)
	}
	if err := d.Done(); err != nil {
		return walRecord{}, fmt.Errorf("serve: WAL record (kind %d): %w", rec.kind, err)
	}
	if rec.kind == recKindAdd {
		if err := store.CheckPage(rec.add.ID, rec.add.Birth, rec.add.Popularity); err != nil {
			return walRecord{}, fmt.Errorf("serve: WAL add record: %w", err)
		}
	}
	return rec, nil
}
