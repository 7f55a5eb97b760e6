// The binary batch wire codec for POST /v1/feedback/batch: the same
// length-prefixed varint framing as the /v1/rank/batch codec
// (batchcodec.go), so a high-rate feedback driver spends its cycles on
// ingestion, not JSON. One batch call carries many events and is
// admitted all-or-nothing through ONE TryFeedback — a single group
// commit across the touched shards, which is what lets the wire batch
// size drive the WAL's group-commit batch size.
//
// Framing (all integers varint/uvarint; "string" is a uvarint byte
// length followed by raw bytes):
//
//	request  := uvarint version(=1), uvarint count, count × {
//	              varint page, varint slot,
//	              varint impressions, varint clicks,
//	              string arm, string unit }
//	response := uvarint version(=1), uvarint accepted
//
// Decoders are strict: unknown versions, short frames, oversized counts
// and trailing bytes are all errors — a torn or hostile frame never
// decodes into a half-right batch.
package serve

import (
	"encoding/binary"
	"fmt"

	"repro/internal/store"
)

// MaxFeedbackBatchEvents bounds the events one binary feedback batch
// may carry.
const MaxFeedbackBatchEvents = 8192

// AppendFeedbackBatchRequest encodes events in the binary feedback
// batch framing — the client half of the codec.
func AppendFeedbackBatchRequest(b []byte, events []Event) []byte {
	b = binary.AppendUvarint(b, batchVersion)
	b = binary.AppendUvarint(b, uint64(len(events)))
	for i := range events {
		e := &events[i]
		b = binary.AppendVarint(b, int64(e.Page))
		b = binary.AppendVarint(b, int64(e.Slot))
		b = binary.AppendVarint(b, int64(e.Impressions))
		b = binary.AppendVarint(b, int64(e.Clicks))
		b = store.AppendString(b, e.Arm)
		b = store.AppendString(b, e.Unit)
	}
	return b
}

// DecodeFeedbackBatchRequest decodes a binary feedback batch request
// frame.
func DecodeFeedbackBatchRequest(data []byte) ([]Event, error) {
	r := store.NewBinReader(data, 0)
	if v := r.Uvarint(); r.Err() != nil || v != batchVersion {
		return nil, fmt.Errorf("%w: bad version", errBatch)
	}
	count := r.Uvarint()
	if r.Err() != nil || count > MaxFeedbackBatchEvents {
		return nil, fmt.Errorf("%w: bad event count", errBatch)
	}
	// Every event costs at least 6 encoded bytes (four varints, two
	// empty strings), so a count the remaining bytes cannot hold is
	// corrupt — checked before the allocation, not after.
	if count*6 > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: truncated", errBatch)
	}
	events := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		var e Event
		e.Page = int(r.Varint())
		e.Slot = int(r.Varint())
		e.Impressions = int(r.Varint())
		e.Clicks = int(r.Varint())
		e.Arm = r.String()
		e.Unit = r.String()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: event %d", errBatch, i)
		}
		events = append(events, e)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBatch, r.Remaining())
	}
	return events, nil
}

// AppendFeedbackBatchResponse encodes the binary feedback batch
// acknowledgment.
func AppendFeedbackBatchResponse(b []byte, accepted int) []byte {
	b = binary.AppendUvarint(b, batchVersion)
	b = binary.AppendUvarint(b, uint64(accepted))
	return b
}

// DecodeFeedbackBatchResponse decodes a binary feedback batch
// acknowledgment — the client half of the codec. A count
// above MaxFeedbackBatchEvents acknowledges more events than any request
// may carry, so it is an error like any other oversized count.
func DecodeFeedbackBatchResponse(data []byte) (accepted int, err error) {
	r := store.NewBinReader(data, 0)
	if v := r.Uvarint(); r.Err() != nil || v != batchVersion {
		return 0, fmt.Errorf("%w: bad version", errBatch)
	}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", errBatch, err)
	}
	if n > MaxFeedbackBatchEvents {
		return 0, fmt.Errorf("%w: bad accepted count", errBatch)
	}
	if r.Remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", errBatch, r.Remaining())
	}
	return int(n), nil
}
