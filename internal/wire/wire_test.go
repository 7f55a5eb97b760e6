package wire

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestCount pins Count's two bounds: the count itself, and the bytes
// that must follow it at minBytes per element. The boundary count is
// accepted on both.
func TestCount(t *testing.T) {
	for _, tc := range []struct {
		name          string
		count         uint64
		tail          int // bytes after the count
		max, minBytes uint64
		ok            bool
	}{
		{"fits", 3, 9, 10, 3, true},
		{"at max", 10, 10, 10, 1, true},
		{"above max", 11, 100, 10, 1, false},
		{"bytes short by one", 4, 11, 10, 3, false},
		{"no byte bound", 1 << 40, 0, 1 << 62, 0, true},
		{"huge count, byte bound", 1 << 62, 5, 1<<64 - 1, 15, false},
	} {
		data := binary.AppendUvarint(nil, tc.count)
		data = append(data, make([]byte, tc.tail)...)
		r := NewReader(data, 0)
		got := r.Count(tc.max, tc.minBytes)
		if ok := r.Err() == nil; ok != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, r.Err(), tc.ok)
			continue
		}
		if tc.ok && got != tc.count {
			t.Errorf("%s: count %d, want %d", tc.name, got, tc.count)
		}
		if !tc.ok && got != 0 {
			t.Errorf("%s: a refused count reads %d, want 0", tc.name, got)
		}
	}
}

// TestDone: Done reports the sticky field error first, then any bytes
// left over, and nil only at the exact end.
func TestDone(t *testing.T) {
	r := NewReader([]byte{5, 6, 7}, 0)
	if r.Byte() != 5 {
		t.Fatal("first byte")
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Fatalf("Done with 2 bytes left = %v", err)
	}
	r.Byte()
	r.Byte()
	if err := r.Done(); err != nil {
		t.Fatalf("Done at the end = %v", err)
	}
	r.Byte() // past the end: sticky
	if err := r.Done(); err != errField {
		t.Fatalf("Done after a short read = %v, want %v", err, errField)
	}
}

// TestPaddedVarintRefused: a varint with a redundant zero high group
// decodes to the same value as its minimal form but is refused, so
// every accepted field re-encodes to its own bytes.
func TestPaddedVarintRefused(t *testing.T) {
	for _, data := range [][]byte{{0x81, 0x00}, {0x80, 0x80, 0x00}} {
		u := NewReader(data, 0)
		if u.Uvarint(); u.Err() == nil {
			t.Errorf("padded uvarint %x accepted", data)
		}
		s := NewReader(data, 0)
		if s.Varint(); s.Err() == nil {
			t.Errorf("padded varint %x accepted", data)
		}
	}
	if r := NewReader([]byte{0x00}, 0); r.Uvarint() != 0 || r.Err() != nil {
		t.Errorf("one-byte zero refused: %v", r.Err())
	}
}

// TestBytesAndString: Bytes aliases the input with its capacity ending
// at the run, String copies, and a length past the end fails.
func TestBytesAndString(t *testing.T) {
	data := AppendBytes(nil, []byte("abc"))
	data = AppendString(data, "de")
	r := NewReader(data, 0)
	b := r.Bytes()
	if string(b) != "abc" || cap(b) != 3 || &b[0] != &data[1] {
		t.Fatalf("Bytes = %q cap %d, want an alias of abc with cap 3", b, cap(b))
	}
	s := r.String()
	data[len(data)-1] = 'X'
	if s != "de" {
		t.Fatalf("String = %q, want de (a copy)", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if r := NewReader([]byte{4, 'a', 'b', 'c'}, 0); r.String() != "" || r.Err() == nil {
		t.Fatal("length past the end accepted")
	}
}
