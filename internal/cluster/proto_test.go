package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestReadMsgRefusesPaddedLength pins that a message length prefix must
// be minimally encoded: the same ack framed behind a length padded with
// a redundant zero group is refused, like every padded varint inside a
// message body.
func TestReadMsgRefusesPaddedLength(t *testing.T) {
	body := ack{lsn: 7}.encode()
	var canonical bytes.Buffer
	if err := writeMsg(&canonical, body); err != nil {
		t.Fatal(err)
	}
	if got, err := readMsg(bufio.NewReader(&canonical), maxCtrlMsg); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("canonical ack: %x err=%v", got, err)
	}
	padded := append([]byte{byte(len(body)) | 0x80, 0x00}, body...)
	if got, err := readMsg(bufio.NewReader(bytes.NewReader(padded)), maxCtrlMsg); err == nil {
		t.Fatalf("padded length prefix accepted: %x", got)
	}
}

// FuzzDecodeSDRP runs the replication protocol's read path over
// arbitrary bytes: readMsg, then the decoder the message's kind byte
// names. Whatever both accept must re-encode, length prefix included,
// to exactly the bytes that were read.
func FuzzDecodeSDRP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		br := bufio.NewReader(rd)
		// Bounding the message by the input keeps a hostile length from
		// allocating more than the fuzzer handed over.
		body, err := readMsg(br, len(data))
		if err != nil {
			return
		}
		again, err := reencodeSDRP(body)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeMsg(&out, again); err != nil {
			t.Fatal(err)
		}
		read := data[:len(data)-rd.Len()-br.Buffered()]
		if !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("accepted message re-encodes differently:\ninput %x\nagain %x", read, out.Bytes())
		}
	})
}

// reencodeSDRP decodes body by its kind byte and encodes the result
// again.
func reencodeSDRP(body []byte) ([]byte, error) {
	switch body[0] {
	case msgHandshake:
		h, err := decodeHandshake(body)
		return h.encode(), err
	case msgReply:
		rp, err := decodeReply(body)
		return rp.encode(), err
	case msgSnapshot:
		s, err := decodeSnapMsg(body)
		return s.encode(), err
	case msgFrame:
		fr, err := decodeFrameMsg(body)
		return appendFrameMsg(nil, fr.epoch, fr.lsn, fr.payload), err
	case msgHeartbeat:
		hb, err := decodeHeartbeat(body)
		return hb.encode(), err
	case msgAck:
		a, err := decodeAck(body)
		return a.encode(), err
	}
	return nil, fmt.Errorf("cluster: unknown message kind %q", body[0])
}

// TestTruncatedMessageNamesItself: a decoder's error names the message
// that failed, not another framing's — the shared cursor's sticky
// error once said "corrupt snapshot" for a truncated heartbeat.
func TestTruncatedMessageNamesItself(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		dec  func([]byte) error
	}{
		{"heartbeat", heartbeat{epoch: 300, commitLSN: 7, nanos: 1 << 40}.encode(), func(b []byte) error { _, err := decodeHeartbeat(b); return err }},
		{"frame", appendFrameMsg(nil, 1, 2, []byte("abc")), func(b []byte) error { _, err := decodeFrameMsg(b); return err }},
		{"ack", ack{lsn: 1 << 20}.encode(), func(b []byte) error { _, err := decodeAck(b); return err }},
	} {
		err := tc.dec(tc.body[:len(tc.body)-2])
		if err == nil || !strings.Contains(err.Error(), tc.name) || strings.Contains(err.Error(), "snapshot") {
			t.Errorf("truncated %s: error %v", tc.name, err)
		}
	}
}
