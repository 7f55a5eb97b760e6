// The replication wire protocol: length-prefixed binary messages over a
// plain TCP connection, in the same codec conventions as the /v1 batch
// protocol (uvarint integers, uvarint-length-prefixed strings, a leading
// kind byte, strict decoding — short or trailing bytes are errors, never
// ignored).
//
// A follower dials the leader's replication listener and opens one
// session per shard:
//
//	follower → leader   handshake{node, shard, epoch, startLSN, minor}
//	leader   → follower handshake reply{status, epoch, detail, minor}
//	leader   → follower [snapshot{lsn, bytes}]        (catch-up only)
//	leader   → follower frame{epoch, lsn, payload}…   (the shipped WAL)
//	leader   → follower heartbeat{epoch, commitLSN, nanos}
//	follower → leader   ack{lsn}                      (durable position)
//
// Frame payloads are the exact record bytes of the leader's WAL; the
// follower re-appends them to its own log, which re-frames them
// byte-identically (same length prefix, same CRC-32C). The leader ships
// a frame only once it is durable there, in LSN order, so the follower
// applies frames as they arrive; acks are windowed and cumulative rather
// than per-batch. Every leader→follower message carries the fencing
// epoch; a receiver that has seen a higher epoch refuses the message and
// drops the connection, which is what makes a revived old leader
// harmless.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Message kinds (the first byte of every message body).
const (
	msgHandshake = 'H' // follower → leader: session open
	msgReply     = 'R' // leader → follower: handshake verdict
	msgSnapshot  = 'S' // leader → follower: catch-up snapshot
	msgFrame     = 'F' // leader → follower: one WAL record
	msgHeartbeat = 'B' // leader → follower: liveness + commit position
	msgAck       = 'A' // follower → leader: durable position
)

// Handshake verdicts.
const (
	replyFrames    = 0 // stream starts at the requested LSN
	replySnapshot  = 1 // snapshot message precedes the frame stream
	replyNotLeader = 2 // this node does not lead the shard; re-resolve
	replyEpoch     = 3 // requester has seen a higher epoch; I am stale
	replyError     = 4 // anything else; detail says what
)

// protoMagic leads the handshake so a stray connection to the wrong
// port fails immediately instead of half-parsing.
const protoMagic = "SDRP"

// protoVersion is bumped on any incompatible message change.
const protoVersion = 1

// protoMinor is the feature revision both ends of a session must
// speak; the handshake and its reply carry it as a required trailing
// field. Revision 2 ships frames only once they are durable on the
// leader; a revision-1 follower would wait for the 'D' durability
// messages revision 2 no longer sends. Every node of a cluster is built
// from one tree, so there is no older peer to negotiate down to: a
// handshake without the field, or with another revision, is refused.
const protoMinor = 2

// maxCtrlMsg bounds handshake/heartbeat/ack messages; maxFrameMsg
// bounds a frame (a WAL record plus header slack); maxSnapMsg bounds a
// shipped snapshot.
const (
	maxCtrlMsg  = 4 << 10
	maxFrameMsg = wal.MaxRecord + 64
	maxSnapMsg  = 256 << 20
)

// writeMsg frames body as [uvarint length][body] and writes it.
func writeMsg(w io.Writer, body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readMsg reads one length-prefixed message of at most max bytes. The
// length must be minimally encoded, as every wire.Reader varint is. It
// reads a stream rather than a buffer, so it does not use the cursor.
func readMsg(br *bufio.Reader, max int) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// A minimal uvarint ends in a zero byte only when it is the one-byte
	// zero, which is refused below as an empty message; any other prefix
	// ending in zero carries a redundant high group. ReadUvarint's last
	// call was ReadByte, so the reader can step back over that byte.
	_ = br.UnreadByte()
	if last, _ := br.ReadByte(); last == 0 && n != 0 {
		return nil, fmt.Errorf("cluster: padded message length")
	}
	if n == 0 || n > uint64(max) {
		return nil, fmt.Errorf("cluster: message of %d bytes (max %d)", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// msgDone is a message decoder's end check, naming the message in its
// error: every field decoded, no byte left over.
func msgDone(r *wire.Reader, what string) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("cluster: %s: %w", what, err)
	}
	return nil
}

// handshake is the session-open message.
type handshake struct {
	node     string // follower's node ID
	shard    uint64
	epoch    uint64 // highest epoch the follower has seen for the shard
	startLSN uint64 // first LSN the follower needs (its committed+1)
	minor    uint64 // follower's protoMinor
}

func (h handshake) encode() []byte {
	b := []byte{msgHandshake}
	b = append(b, protoMagic...)
	b = binary.AppendUvarint(b, protoVersion)
	b = wire.AppendString(b, h.node)
	b = binary.AppendUvarint(b, h.shard)
	b = binary.AppendUvarint(b, h.epoch)
	b = binary.AppendUvarint(b, h.startLSN)
	return binary.AppendUvarint(b, h.minor)
}

func decodeHandshake(body []byte) (handshake, error) {
	var h handshake
	if len(body) < 1+len(protoMagic) || body[0] != msgHandshake {
		return h, fmt.Errorf("cluster: not a handshake")
	}
	if string(body[1:1+len(protoMagic)]) != protoMagic {
		return h, fmt.Errorf("cluster: bad magic")
	}
	r := wire.NewReader(body, 1+len(protoMagic))
	if v := r.Uvarint(); r.Err() == nil && v != protoVersion {
		return h, fmt.Errorf("cluster: protocol version %d (want %d)", v, protoVersion)
	}
	h.node = r.String()
	h.shard = r.Uvarint()
	h.epoch = r.Uvarint()
	h.startLSN = r.Uvarint()
	if r.Err() == nil && r.Remaining() == 0 {
		return h, fmt.Errorf("cluster: handshake carries no protocol minor (want %d)", protoMinor)
	}
	h.minor = r.Uvarint()
	if err := msgDone(r, "handshake"); err != nil {
		return h, err
	}
	if h.minor != protoMinor {
		return h, fmt.Errorf("cluster: protocol minor %d (want %d)", h.minor, protoMinor)
	}
	return h, nil
}

// reply is the leader's handshake verdict.
type reply struct {
	status byte
	epoch  uint64 // the leader's current epoch for the shard
	detail string // human-readable rejection reason
	minor  uint64 // leader's protoMinor
}

func (rp reply) encode() []byte {
	b := []byte{msgReply, rp.status}
	b = binary.AppendUvarint(b, rp.epoch)
	b = wire.AppendString(b, rp.detail)
	return binary.AppendUvarint(b, rp.minor)
}

func decodeReply(body []byte) (reply, error) {
	var rp reply
	if len(body) < 2 || body[0] != msgReply {
		return rp, fmt.Errorf("cluster: not a handshake reply")
	}
	rp.status = body[1]
	r := wire.NewReader(body, 2)
	rp.epoch = r.Uvarint()
	rp.detail = r.String()
	rp.minor = r.Uvarint()
	return rp, msgDone(r, "reply")
}

// snapMsg carries a catch-up snapshot (store.EncodeSnapshot bytes — the
// wire format IS the on-disk format, CRC trailer included).
type snapMsg struct {
	lsn  uint64
	data []byte
}

func (s snapMsg) encode() []byte {
	b := []byte{msgSnapshot}
	b = binary.AppendUvarint(b, s.lsn)
	return wire.AppendBytes(b, s.data)
}

func decodeSnapMsg(body []byte) (snapMsg, error) {
	var s snapMsg
	if len(body) < 1 || body[0] != msgSnapshot {
		return s, fmt.Errorf("cluster: not a snapshot message")
	}
	r := wire.NewReader(body, 1)
	s.lsn = r.Uvarint()
	s.data = r.Bytes()
	return s, msgDone(r, "snapshot")
}

// frameMsg is one shipped WAL record.
type frameMsg struct {
	epoch   uint64
	lsn     uint64
	payload []byte
}

func appendFrameMsg(b []byte, epoch, lsn uint64, payload []byte) []byte {
	b = append(b, msgFrame)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, lsn)
	return wire.AppendBytes(b, payload)
}

func decodeFrameMsg(body []byte) (frameMsg, error) {
	var f frameMsg
	if len(body) < 1 || body[0] != msgFrame {
		return f, fmt.Errorf("cluster: not a frame")
	}
	r := wire.NewReader(body, 1)
	f.epoch = r.Uvarint()
	f.lsn = r.Uvarint()
	f.payload = r.Bytes()
	return f, msgDone(r, "frame")
}

// heartbeat carries liveness and the leader's committed position even
// when no frames flow.
type heartbeat struct {
	epoch     uint64
	commitLSN uint64
	nanos     uint64 // leader's clock at send, unix nanos
}

func (hb heartbeat) encode() []byte {
	b := []byte{msgHeartbeat}
	b = binary.AppendUvarint(b, hb.epoch)
	b = binary.AppendUvarint(b, hb.commitLSN)
	b = binary.AppendUvarint(b, hb.nanos)
	return b
}

func decodeHeartbeat(body []byte) (heartbeat, error) {
	var hb heartbeat
	if len(body) < 1 || body[0] != msgHeartbeat {
		return hb, fmt.Errorf("cluster: not a heartbeat")
	}
	r := wire.NewReader(body, 1)
	hb.epoch = r.Uvarint()
	hb.commitLSN = r.Uvarint()
	hb.nanos = r.Uvarint()
	return hb, msgDone(r, "heartbeat")
}

// ack reports the follower's durable position upstream.
type ack struct {
	lsn uint64
}

func (a ack) encode() []byte {
	b := []byte{msgAck}
	return binary.AppendUvarint(b, a.lsn)
}

func decodeAck(body []byte) (ack, error) {
	var a ack
	if len(body) < 1 || body[0] != msgAck {
		return a, fmt.Errorf("cluster: not an ack")
	}
	r := wire.NewReader(body, 1)
	a.lsn = r.Uvarint()
	return a, msgDone(r, "ack")
}
