// The binary batch wire codec for POST /v1/rank/batch: length-prefixed
// varint framing next to the JSON codec, so a driver pushing thousands
// of rank calls per second (the bench harness, embedded clients)
// spends its cycles on ranking, not on JSON.
//
// Framing (all integers little-endian; "string" is a uvarint byte
// length followed by raw bytes):
//
//	request  := uvarint version(=1), uvarint count, count × {
//	              string query, varint n, string unit, string arm,
//	              byte flags,            // bit0: seed follows
//	              [uvarint seed] }
//	response := uvarint version(=1), uvarint count, count × {
//	              string arm, uvarint epoch, uvarint nresults,
//	              nresults × { varint id, fixed64 popularity bits,
//	                           byte promoted } }
//
// The response does not echo the query (the caller knows its own batch
// order) and result slots are implied by position (1-based). Decoders
// are strict: unknown versions, short frames, oversized counts and
// trailing bytes are all errors — a torn or hostile frame never decodes
// into a half-right batch.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/store"
)

// BatchContentType is the Content-Type that selects the binary batch
// codec on POST /v1/rank/batch (request and response alike); any other
// type means JSON.
const BatchContentType = "application/x-shuffledeck-batch"

// MaxBatchRequests bounds the sub-requests one batch call may carry.
const MaxBatchRequests = 1024

// batchVersion stamps the head of every binary batch frame.
const batchVersion = 1

// batchFlagSeed marks that a request carries an explicit merge seed.
const batchFlagSeed = 1 << 0

// RankBatchRequest is the JSON form of the POST /v1/rank/batch body.
type RankBatchRequest struct {
	Requests []RankRequest `json:"requests"`
}

// RankBatchResponse is the JSON form of the POST /v1/rank/batch reply,
// one RankResponse per sub-request in request order.
type RankBatchResponse struct {
	Responses []RankResponse `json:"responses"`
}

// errBatch wraps every binary batch decode failure.
var errBatch = errors.New("malformed binary batch")

// AppendRankBatchRequest encodes reqs in the binary batch request
// framing — the client half of the codec.
func AppendRankBatchRequest(b []byte, reqs []RankRequest) []byte {
	b = binary.AppendUvarint(b, batchVersion)
	b = binary.AppendUvarint(b, uint64(len(reqs)))
	for i := range reqs {
		req := &reqs[i]
		b = store.AppendString(b, req.Query)
		b = binary.AppendVarint(b, int64(req.N))
		b = store.AppendString(b, req.Unit)
		b = store.AppendString(b, req.Arm)
		if req.Seed != nil {
			b = append(b, batchFlagSeed)
			b = binary.AppendUvarint(b, *req.Seed)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeRankBatchRequest decodes a binary batch request frame.
func DecodeRankBatchRequest(data []byte) ([]RankRequest, error) {
	r := store.NewBinReader(data, 0)
	if v := r.Uvarint(); r.Err() != nil || v != batchVersion {
		return nil, fmt.Errorf("%w: bad version", errBatch)
	}
	count := r.Uvarint()
	if r.Err() != nil || count > MaxBatchRequests {
		return nil, fmt.Errorf("%w: bad request count", errBatch)
	}
	// Every request costs at least 5 encoded bytes (three empty strings,
	// n, flags), so a count the remaining bytes cannot hold is corrupt —
	// checked before the allocation, not after.
	if count*5 > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: truncated", errBatch)
	}
	reqs := make([]RankRequest, 0, count)
	for i := uint64(0); i < count; i++ {
		var req RankRequest
		req.Query = r.String()
		req.N = int(r.Varint())
		req.Unit = r.String()
		req.Arm = r.String()
		if flags := r.Byte(); flags&batchFlagSeed != 0 {
			seed := r.Uvarint()
			req.Seed = &seed
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: request %d", errBatch, i)
		}
		reqs = append(reqs, req)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBatch, r.Remaining())
	}
	return reqs, nil
}

// appendBinRankItem appends one served response item — the server's
// streaming half of the response codec (the header uvarints are written
// by the handler before the first item).
func appendBinRankItem(b []byte, arm string, epoch uint64, results []Result) []byte {
	b = store.AppendString(b, arm)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, uint64(len(results)))
	for _, res := range results {
		b = binary.AppendVarint(b, int64(res.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Popularity))
		promoted := byte(0)
		if res.Promoted {
			promoted = 1
		}
		b = append(b, promoted)
	}
	return b
}

// AppendRankBatchResponse encodes resps in the binary batch response
// framing — byte-identical to what the server streams for the same
// responses (the equivalence the codec tests pin).
func AppendRankBatchResponse(b []byte, resps []RankResponse) []byte {
	b = binary.AppendUvarint(b, batchVersion)
	b = binary.AppendUvarint(b, uint64(len(resps)))
	for i := range resps {
		resp := &resps[i]
		b = store.AppendString(b, resp.Arm)
		b = binary.AppendUvarint(b, resp.Epoch)
		b = binary.AppendUvarint(b, uint64(len(resp.Results)))
		for _, it := range resp.Results {
			b = binary.AppendVarint(b, int64(it.ID))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(it.Popularity))
			promoted := byte(0)
			if it.Promoted {
				promoted = 1
			}
			b = append(b, promoted)
		}
	}
	return b
}

// DecodeRankBatchResponse decodes a binary batch response frame — the
// client half of the codec. Queries are not on the wire, so
// RankResponse.Query stays empty; slots are restored from position.
func DecodeRankBatchResponse(data []byte) ([]RankResponse, error) {
	r := store.NewBinReader(data, 0)
	if v := r.Uvarint(); r.Err() != nil || v != batchVersion {
		return nil, fmt.Errorf("%w: bad version", errBatch)
	}
	count := r.Uvarint()
	if r.Err() != nil || count > MaxBatchRequests {
		return nil, fmt.Errorf("%w: bad response count", errBatch)
	}
	if count*3 > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: truncated", errBatch)
	}
	resps := make([]RankResponse, 0, count)
	for i := uint64(0); i < count; i++ {
		var resp RankResponse
		resp.Arm = r.String()
		resp.Epoch = r.Uvarint()
		n := r.Uvarint()
		if r.Err() != nil || n > MaxTopN {
			return nil, fmt.Errorf("%w: response %d", errBatch, i)
		}
		resp.Results = make([]RankedItem, 0, n)
		for j := uint64(0); j < n; j++ {
			resp.Results = append(resp.Results, RankedItem{
				Slot:       int(j) + 1,
				ID:         int(r.Varint()),
				Popularity: r.Float64(),
				Promoted:   r.Byte() != 0,
			})
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: response %d", errBatch, i)
		}
		resps = append(resps, resp)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBatch, r.Remaining())
	}
	return resps, nil
}
