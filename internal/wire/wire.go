// Package wire is the strict binary cursor every framing of the service
// decodes through: WAL records, store snapshots, the replication
// protocol's messages and the rank and feedback batch frames. Integers
// are (zig-zag) varints, floats fixed 8-byte little-endian IEEE-754
// bits, and strings and byte runs a uvarint length followed by their
// bytes.
//
// A Reader keeps the first failure and turns every later read into a
// no-op, so a decoder reads its fields in order and checks once. Varints
// must be minimally encoded, so whatever a Reader accepts re-encodes to
// the same bytes. Count bounds an element count before the caller
// allocates for it, and Done is the end check: a frame with bytes left
// over is as corrupt as one that runs short.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// errField is the sticky error of a field that runs past the end of
// the data or is not minimally encoded.
var errField = errors.New("wire: truncated or non-minimal field")

// Reader is a strict little-endian cursor over a length-checked binary
// payload with a sticky error on the first malformed field.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a cursor over data positioned at off.
func NewReader(data []byte, off int) *Reader {
	return &Reader{data: data, off: off}
}

// Err reports the sticky decode failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes follow the cursor.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = errField
	}
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	r.advance(n)
	return v
}

// advance moves past a varint of n bytes (n <= 0: malformed). A
// multi-byte varint whose last byte is zero carries a redundant high
// group: not the minimal encoding, so it is refused too.
func (r *Reader) advance(n int) {
	if n <= 0 || (n > 1 && r.data[r.off+n-1] == 0) {
		r.fail()
		return
	}
	r.off += n
}

// Varint decodes one zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	r.advance(n)
	return v
}

// Float64 decodes one fixed 8-byte IEEE-754 value.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// AppendString appends s as a uvarint length followed by its bytes:
// the writer twin of Reader.String.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p as a uvarint length followed by its bytes: the
// writer twin of Reader.Bytes.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Bytes decodes one uvarint-length-prefixed run of bytes. The result
// aliases the input buffer; its capacity ends with it.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail()
		return nil
	}
	end := r.off + int(n)
	v := r.data[r.off:end:end]
	r.off = end
	return v
}

// String decodes one uvarint-length-prefixed string (copied out, so it
// does not alias the input buffer).
func (r *Reader) String() string {
	return string(r.Bytes())
}

// Count decodes a uvarint element count and fails unless it is at most
// max and the remaining bytes can hold that many elements of at least
// minBytes each, so a caller may allocate for the count before reading
// the elements: a count the bytes cannot back is refused here instead
// of when the bytes run out. A minBytes of 0 checks max alone.
func (r *Reader) Count(max, minBytes uint64) uint64 {
	n := r.Uvarint()
	switch {
	case r.err != nil:
		return 0
	case n > max:
		r.err = fmt.Errorf("wire: count %d above %d", n, max)
		return 0
	case minBytes > 0 && n > uint64(r.Remaining())/minBytes:
		r.err = fmt.Errorf("wire: count %d at %d+ bytes each overruns the %d bytes left", n, minBytes, r.Remaining())
		return 0
	}
	return n
}

// Done is the end check of a decode: the sticky error if a field
// failed, else an error naming the trailing byte count if any bytes are
// left, else nil.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes", n)
	}
	return nil
}
