package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedEvents covers every field shape the feedback batch codec
// carries: zero values, large counts, unicode arms, empty and non-empty
// units.
func fuzzSeedEvents() []Event {
	return []Event{
		{Page: 0, Slot: 1},
		{Page: 42, Slot: 3, Impressions: 1000, Clicks: 37, Arm: "control", Unit: "u1"},
		{Page: 1 << 30, Slot: 20, Impressions: 1, Clicks: 1, Arm: "explore π≈3", Unit: ""},
		{Page: 7, Slot: 2, Impressions: 0, Clicks: 0, Arm: "", Unit: "w0-u15"},
	}
}

// TestFeedbackBatchRequestRoundTrip pins encode→decode identity for the
// request half of the feedback batch codec.
func TestFeedbackBatchRequestRoundTrip(t *testing.T) {
	events := fuzzSeedEvents()
	frame := AppendFeedbackBatchRequest(nil, events)
	got, err := DecodeFeedbackBatchRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip diverged:\nin  %+v\nout %+v", events, got)
	}
}

// TestFeedbackBatchResponseRoundTrip pins the acknowledgment framing.
func TestFeedbackBatchResponseRoundTrip(t *testing.T) {
	for _, accepted := range []int{0, 1, 512, MaxFeedbackBatchEvents} {
		frame := AppendFeedbackBatchResponse(nil, accepted)
		got, err := DecodeFeedbackBatchResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got != accepted {
			t.Fatalf("accepted %d round-tripped to %d", accepted, got)
		}
	}
}

// TestFeedbackBatchDecodeStrictness: the decoder rejects version skew,
// truncation, oversized counts and trailing garbage rather than
// returning a half-right batch.
func TestFeedbackBatchDecodeStrictness(t *testing.T) {
	valid := AppendFeedbackBatchRequest(nil, fuzzSeedEvents())
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{2}, valid[1:]...)},
		{"truncated", valid[:len(valid)-3]},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"count overflow", []byte{1, 0xff, 0xff, 0xff, 0xff, 0x7f}},
	}
	for _, tc := range cases {
		if _, err := DecodeFeedbackBatchRequest(tc.frame); err == nil {
			t.Errorf("request decode accepted %s frame", tc.name)
		}
	}
	validResp := AppendFeedbackBatchResponse(nil, 99)
	respCases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{9}, validResp[1:]...)},
		{"truncated", validResp[:len(validResp)-1]},
		{"trailing bytes", append(append([]byte{}, validResp...), 7)},
		{"count above batch bound", AppendFeedbackBatchResponse(nil, MaxFeedbackBatchEvents+1)},
		{"count wraps negative", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	}
	for _, tc := range respCases {
		if _, err := DecodeFeedbackBatchResponse(tc.frame); err == nil {
			t.Errorf("response decode accepted %s frame", tc.name)
		}
	}
}

// FuzzDecodeFeedbackBatchResponse throws arbitrary bytes at the
// acknowledgment decoder: it must never panic, every count it accepts
// lies in [0, MaxFeedbackBatchEvents], and an accepted frame re-encodes
// byte for byte.
func FuzzDecodeFeedbackBatchResponse(f *testing.F) {
	f.Add(AppendFeedbackBatchResponse(nil, 0))
	f.Add(AppendFeedbackBatchResponse(nil, MaxFeedbackBatchEvents))
	f.Add([]byte{1, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted, err := DecodeFeedbackBatchResponse(data)
		if err != nil {
			return
		}
		if accepted < 0 || accepted > MaxFeedbackBatchEvents {
			t.Fatalf("accepted count %d outside [0, %d]", accepted, MaxFeedbackBatchEvents)
		}
		if again := AppendFeedbackBatchResponse(nil, accepted); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\ninput %x\nagain %x", data, again)
		}
	})
}

// FuzzDecodeFeedbackBatchRequest throws arbitrary bytes at the request
// decoder: it must never panic, and anything it accepts must re-encode
// byte for byte.
func FuzzDecodeFeedbackBatchRequest(f *testing.F) {
	f.Add(AppendFeedbackBatchRequest(nil, fuzzSeedEvents()))
	f.Add(AppendFeedbackBatchRequest(nil, nil))
	f.Add([]byte{1, 1, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeFeedbackBatchRequest(data)
		if err != nil {
			return
		}
		if again := AppendFeedbackBatchRequest(nil, events); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\ninput %x\nagain %x", data, again)
		}
	})
}
