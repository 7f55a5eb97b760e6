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

	"repro/internal/wire"
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
		b = wire.AppendString(b, e.Arm)
		b = wire.AppendString(b, e.Unit)
	}
	return b
}

// DecodeFeedbackBatchRequest decodes a binary feedback batch request
// frame.
func DecodeFeedbackBatchRequest(data []byte) ([]Event, error) {
	r := wire.NewReader(data, 0)
	// Every event costs at least 6 encoded bytes: four varints and two
	// empty strings.
	count, err := openBatch(r, MaxFeedbackBatchEvents, 6, "event")
	if err != nil {
		return nil, err
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
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: event %d: %w", errBatch, i, err)
		}
		events = append(events, e)
	}
	if err := closeBatch(r); err != nil {
		return nil, err
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
	r := wire.NewReader(data, 0)
	n, err := openBatch(r, MaxFeedbackBatchEvents, 0, "accepted")
	if err == nil {
		err = closeBatch(r)
	}
	if err != nil {
		return 0, err
	}
	return int(n), nil
}
