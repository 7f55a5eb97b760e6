package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedRequests is a representative batch covering every field shape:
// empty strings, explicit seeds, negative-free varints at both ends.
func fuzzSeedRequests() []RankRequest {
	s1, s2 := uint64(7), uint64(1<<63)
	return []RankRequest{
		{},
		{Query: "alpha beta", N: 10, Unit: "u1", Arm: "control", Seed: &s1},
		{Query: "", N: MaxTopN, Unit: "", Arm: "", Seed: &s2},
		{Query: "unicode π≈3", N: 1, Unit: "w0-u15"},
	}
}

func fuzzSeedResponses() []RankResponse {
	return []RankResponse{
		{Arm: "control", Epoch: 0, Results: []RankedItem{}},
		{Arm: "explore", Epoch: 1 << 40, Results: []RankedItem{
			{Slot: 1, ID: 0, Popularity: 0, Promoted: false},
			{Slot: 2, ID: 123456, Popularity: 3.25, Promoted: true},
			{Slot: 3, ID: -9, Popularity: 1e-9, Promoted: false},
		}},
	}
}

// TestBatchRequestRoundTrip pins encode→decode identity for the request
// half of the codec.
func TestBatchRequestRoundTrip(t *testing.T) {
	reqs := fuzzSeedRequests()
	frame := AppendRankBatchRequest(nil, reqs)
	got, err := DecodeRankBatchRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip diverged:\nin  %+v\nout %+v", reqs, got)
	}
}

// TestBatchResponseRoundTrip pins encode→decode identity for the
// response half. Slots are positional on the wire, so the decoder
// restores them 1-based; empty result lists come back empty (non-nil).
func TestBatchResponseRoundTrip(t *testing.T) {
	resps := fuzzSeedResponses()
	frame := AppendRankBatchResponse(nil, resps)
	got, err := DecodeRankBatchResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("round trip count %d, want %d", len(got), len(resps))
	}
	for i := range resps {
		if got[i].Arm != resps[i].Arm || got[i].Epoch != resps[i].Epoch ||
			!reflect.DeepEqual(got[i].Results, resps[i].Results) {
			t.Fatalf("response %d diverged:\nin  %+v\nout %+v", i, resps[i], got[i])
		}
	}
}

// TestBatchDecodeStrictness: a strict decoder rejects version skew,
// truncation, oversized counts and trailing garbage rather than
// returning a half-right batch.
func TestBatchDecodeStrictness(t *testing.T) {
	valid := AppendRankBatchRequest(nil, fuzzSeedRequests())
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{2}, valid[1:]...)},
		{"truncated", valid[:len(valid)-3]},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"count overflow", []byte{1, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		// One request {"", 0, "", "", flags 0x03, seed 7}: bit 0 says a
		// seed follows, bit 1 means nothing, so the byte has no canonical
		// re-encode.
		{"unknown flag bits", []byte{1, 1, 0, 0, 0, 0, 0x03, 7}},
	}
	for _, tc := range cases {
		if _, err := DecodeRankBatchRequest(tc.frame); err == nil {
			t.Errorf("request decode accepted %s frame", tc.name)
		}
	}
	validResp := AppendRankBatchResponse(nil, fuzzSeedResponses())
	respCases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{9}, validResp[1:]...)},
		{"truncated", validResp[:len(validResp)-1]},
		{"trailing bytes", append(append([]byte{}, validResp...), 7)},
		// One response {arm "", epoch 0, one result {id 0, popularity
		// 0, promoted 2}}: only 0 and 1 re-encode as themselves.
		{"promoted byte 2", []byte{1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}},
	}
	for _, tc := range respCases {
		if _, err := DecodeRankBatchResponse(tc.frame); err == nil {
			t.Errorf("response decode accepted %s frame", tc.name)
		}
	}
}

// FuzzDecodeRankBatchRequest throws arbitrary bytes at the request
// decoder: it must never panic, and anything it accepts must re-encode
// byte for byte — the decoder refuses every non-canonical spelling
// (padded varints, unknown flag bits), so its image is exactly the
// encoder's.
func FuzzDecodeRankBatchRequest(f *testing.F) {
	f.Add(AppendRankBatchRequest(nil, fuzzSeedRequests()))
	f.Add(AppendRankBatchRequest(nil, nil))
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := DecodeRankBatchRequest(data)
		if err != nil {
			return
		}
		if again := AppendRankBatchRequest(nil, reqs); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\ninput %x\nagain %x", data, again)
		}
	})
}

// FuzzDecodeRankBatchResponse is the same property for the response
// decoder, which refuses promoted bytes other than 0 and 1.
func FuzzDecodeRankBatchResponse(f *testing.F) {
	f.Add(AppendRankBatchResponse(nil, fuzzSeedResponses()))
	f.Add(AppendRankBatchResponse(nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		resps, err := DecodeRankBatchResponse(data)
		if err != nil {
			return
		}
		if again := AppendRankBatchResponse(nil, resps); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\ninput %x\nagain %x", data, again)
		}
	})
}
