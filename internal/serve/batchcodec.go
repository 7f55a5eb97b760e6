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
//	              byte flags,            // 0, or 1: seed follows
//	              [uvarint seed] }
//	response := uvarint version(=1), uvarint count, count × {
//	              string arm, uvarint epoch, uvarint nresults,
//	              nresults × { varint id, fixed64 popularity bits,
//	                           byte promoted (0 or 1) } }
//
// The response does not echo the query (the caller knows its own batch
// order) and result slots are implied by position (1-based). Decoders
// are strict: unknown versions, short frames, oversized counts, flag or
// promoted bytes outside their values and trailing bytes are all errors
// — a torn or hostile frame never decodes into a half-right batch, and
// every frame they accept re-encodes to the same bytes.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
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

// openBatch reads a binary batch frame's header from r: the version,
// then the count that follows it — at most max, each counted item at
// least minBytes long — with what naming the count in its error.
func openBatch(r *wire.Reader, max, minBytes uint64, what string) (uint64, error) {
	if v := r.Uvarint(); r.Err() != nil || v != batchVersion {
		return 0, fmt.Errorf("%w: bad version", errBatch)
	}
	n := r.Count(max, minBytes)
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: bad %s count: %w", errBatch, what, err)
	}
	return n, nil
}

// closeBatch is a binary batch frame's end check.
func closeBatch(r *wire.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %w", errBatch, err)
	}
	return nil
}

// AppendRankBatchRequest encodes reqs in the binary batch request
// framing — the client half of the codec.
func AppendRankBatchRequest(b []byte, reqs []RankRequest) []byte {
	b = binary.AppendUvarint(b, batchVersion)
	b = binary.AppendUvarint(b, uint64(len(reqs)))
	for i := range reqs {
		req := &reqs[i]
		b = wire.AppendString(b, req.Query)
		b = binary.AppendVarint(b, int64(req.N))
		b = wire.AppendString(b, req.Unit)
		b = wire.AppendString(b, req.Arm)
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
	r := wire.NewReader(data, 0)
	// Every request costs at least 5 encoded bytes: three empty
	// strings, n and the flags byte.
	count, err := openBatch(r, MaxBatchRequests, 5, "request")
	if err != nil {
		return nil, err
	}
	reqs := make([]RankRequest, 0, count)
	for i := uint64(0); i < count; i++ {
		var req RankRequest
		req.Query = r.String()
		req.N = int(r.Varint())
		req.Unit = r.String()
		req.Arm = r.String()
		flags := r.Byte()
		if flags&^batchFlagSeed != 0 {
			return nil, fmt.Errorf("%w: request %d: flags byte %#x", errBatch, i, flags)
		}
		if flags == batchFlagSeed {
			seed := r.Uvarint()
			req.Seed = &seed
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: request %d: %w", errBatch, i, err)
		}
		reqs = append(reqs, req)
	}
	if err := closeBatch(r); err != nil {
		return nil, err
	}
	return reqs, nil
}

// appendBinRankItem appends one served response item — the server's
// streaming half of the response codec (the header uvarints are written
// by the handler before the first item).
func appendBinRankItem(b []byte, arm string, epoch uint64, results []Result) []byte {
	b = wire.AppendString(b, arm)
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
// responses (the equivalence the codec tests pin), since each response
// goes through the server's own item encoder.
func AppendRankBatchResponse(b []byte, resps []RankResponse) []byte {
	b = binary.AppendUvarint(b, batchVersion)
	b = binary.AppendUvarint(b, uint64(len(resps)))
	var buf [16]Result
	results := buf[:0]
	for i := range resps {
		resp := &resps[i]
		results = results[:0]
		for _, it := range resp.Results {
			results = append(results, Result{ID: it.ID, Popularity: it.Popularity, Promoted: it.Promoted})
		}
		b = appendBinRankItem(b, resp.Arm, resp.Epoch, results)
	}
	return b
}

// DecodeRankBatchResponse decodes a binary batch response frame — the
// client half of the codec. Queries are not on the wire, so
// RankResponse.Query stays empty; slots are restored from position.
func DecodeRankBatchResponse(data []byte) ([]RankResponse, error) {
	r := wire.NewReader(data, 0)
	// A response is at least an empty arm, an epoch and a result count;
	// a result at least a one-byte id, eight popularity bytes and the
	// promoted byte.
	count, err := openBatch(r, MaxBatchRequests, 3, "response")
	if err != nil {
		return nil, err
	}
	resps := make([]RankResponse, 0, count)
	for i := uint64(0); i < count; i++ {
		var resp RankResponse
		resp.Arm = r.String()
		resp.Epoch = r.Uvarint()
		n := r.Count(MaxTopN, 10)
		resp.Results = make([]RankedItem, 0, n)
		for j := uint64(0); j < n; j++ {
			id, pop, promoted := r.Varint(), r.Float64(), r.Byte()
			if promoted > 1 {
				return nil, fmt.Errorf("%w: response %d result %d: promoted byte %d", errBatch, i, j, promoted)
			}
			resp.Results = append(resp.Results, RankedItem{Slot: int(j) + 1, ID: int(id), Popularity: pop, Promoted: promoted == 1})
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: response %d: %w", errBatch, i, err)
		}
		resps = append(resps, resp)
	}
	if err := closeBatch(r); err != nil {
		return nil, err
	}
	return resps, nil
}
