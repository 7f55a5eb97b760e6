package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect replays the whole log into memory.
func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.Replay(0, func(lsn uint64, p []byte) error {
		if want := uint64(len(out) + 1); lsn != want {
			t.Fatalf("replayed lsn %d, want %d", lsn, want)
		}
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.TornBytes != 0 {
		t.Fatalf("fresh log recover info = %+v", info)
	}
	var want [][]byte
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 7; i++ {
			p := []byte(fmt.Sprintf("batch%d-rec%d", batch, i))
			want = append(want, p)
			lsn, err := l.Append(p)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(len(want)) {
				t.Fatalf("lsn %d, want %d", lsn, len(want))
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything still there, next LSN continues.
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != uint64(len(want)) || info.TornBytes != 0 {
		t.Fatalf("reopen recover info = %+v, want %d records", info, len(want))
	}
	if l2.NextLSN() != uint64(len(want)+1) {
		t.Fatalf("NextLSN = %d, want %d", l2.NextLSN(), len(want)+1)
	}
	if _, err := l2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != len(want)+1 || string(got[len(want)]) != "after-reopen" {
		t.Fatalf("post-reopen replay has %d records, last %q", len(got), got[len(got)-1])
	}
}

func TestUncommittedRecordsAreNotWritten(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("buffered-only")); err != nil {
		t.Fatal(err)
	}
	// Abandon without Commit/Close: the buffered record must not exist.
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 1 {
		t.Fatalf("recovered %d records, want 1 (uncommitted append must not persist)", info.Records)
	}
}

func TestSegmentRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~2 records rotates.
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-0123456789", i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segments) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(l.segments))
	}
	sizeBefore := l.Size()
	if err := l.TruncateBefore(10); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= sizeBefore {
		t.Fatalf("TruncateBefore freed nothing (size %d -> %d)", sizeBefore, l.Size())
	}
	// Records 10.. must all still replay (whole-segment truncation may
	// retain a few below 10, never drop any above).
	seen := map[uint64]bool{}
	if err := l.Replay(10, func(lsn uint64, p []byte) error {
		seen[lsn] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for lsn := uint64(10); lsn <= 20; lsn++ {
		if !seen[lsn] {
			t.Fatalf("record %d missing after TruncateBefore(10)", lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after truncation: first retained segment defines FirstLSN.
	l2, info, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.FirstLSN == 1 || info.LastLSN != 20 {
		t.Fatalf("recover info after truncation = %+v", info)
	}
}

// TestTornTailTruncatedOnOpen cuts the last frame mid-record and asserts
// Open drops exactly the torn suffix.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("intact-record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final record: drop its last 5 bytes.
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 9 {
		t.Fatalf("recovered %d records, want 9 (only the torn final record dropped)", info.Records)
	}
	if info.TornBytes <= 0 {
		t.Fatalf("TornBytes = %d, want > 0", info.TornBytes)
	}
	// The log must append cleanly where the intact prefix ends.
	if lsn, err := l2.Append([]byte("replacement")); err != nil || lsn != 10 {
		t.Fatalf("append after torn recovery: lsn %d err %v, want lsn 10", lsn, err)
	}
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2)
	if len(got) != 10 || string(got[9]) != "replacement" {
		t.Fatalf("replay after torn recovery: %d records, last %q", len(got), got[len(got)-1])
	}
	l2.Close()
}

// TestCorruptPayloadDetected flips a byte inside a record's payload: the
// CRC must reject the frame and everything after it as torn.
func TestCorruptPayloadDetected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle record's payload.
	frame := len(data) / 3
	data[frame+frameHeader+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.TornBytes != int64(len(data)-frame) {
		t.Fatalf("recover info = %+v, want 1 record and %d torn bytes", info, len(data)-frame)
	}
}

// TestInteriorCorruptionRefused damages a non-final segment: recovery
// must fail loudly instead of dropping interior history.
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-0123456789", i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{SegmentBytes: 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with interior corruption = %v, want ErrCorrupt", err)
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
		ok   bool
	}{
		{"", FsyncBatch, true},
		{"batch", FsyncBatch, true},
		{"always", 0, false},
		{"none", FsyncNone, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncMode(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != FsyncMode.String(tc.want) {
			t.Fatalf("mode %v renders %q", got, got.String())
		}
		if !tc.ok && !strings.Contains(err.Error(), "batch or none") {
			t.Fatalf("ParseFsyncMode(%q) refused with %q, which does not name the modes", tc.in, err)
		}
	}
}

// TestReadOnlyOpenDoesNotTruncateTornTail pins the offline-reader
// contract: a torn tail is skipped, never rewritten, and the log
// refuses appends.
func TestReadOnlyOpenDoesNotTruncateTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("intact-record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	tornSize := fi.Size() - 4

	ro, info, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 4 || info.TornBytes <= 0 {
		t.Fatalf("read-only recover info = %+v, want 4 records with torn bytes", info)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != tornSize {
		t.Fatalf("read-only open rewrote the segment (size %d, want %d)", fi.Size(), tornSize)
	}
	if _, err := ro.Append([]byte("nope")); err == nil {
		t.Fatal("read-only log accepted an append")
	}
	// Replay and the pull Reader both stop cleanly at the validated end.
	n := 0
	if err := ro.Replay(0, func(lsn uint64, p []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	rd := ro.Reader(1)
	defer rd.Close()
	m := 0
	for {
		_, _, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		m++
	}
	if n != 4 || m != 4 {
		t.Fatalf("read-only replay saw %d/%d records, want 4/4", n, m)
	}
	ro.Close()
}

// TestReaderMatchesReplay pins the pull Reader against the push Replay
// across segment rotations and a from-cursor.
func TestReaderMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 25; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-payload", i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []uint64{0, 1, 7, 25, 26} {
		var want []string
		if err := l.Replay(from, func(lsn uint64, p []byte) error {
			want = append(want, fmt.Sprintf("%d:%s", lsn, p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var got []string
		rd := l.Reader(from)
		defer rd.Close()
		for {
			lsn, p, ok, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, fmt.Sprintf("%d:%s", lsn, p))
		}
		if len(got) != len(want) {
			t.Fatalf("from=%d: Reader saw %d records, Replay %d", from, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("from=%d record %d: Reader %q vs Replay %q", from, i, got[i], want[i])
			}
		}
	}
}

// TestReaderFollowsCommitsAcrossRotation: a reader returns records
// committed after it was made, including those in segments the log
// rotated into since.
func TestReaderFollowsCommitsAcrossRotation(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	commit := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-payload", i))); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(1, 3)
	r := l.Reader(2)
	defer r.Close()
	var got []string
	for _, to := range []int{3, 5, 12, 20} {
		commit(int(l.NextLSN()), to)
		got = append(got, readAll(t, r)...)
	}
	if len(l.segments) < 4 {
		t.Fatalf("log holds %d segments, want rotations under the reader", len(l.segments))
	}
	if len(got) != 18 {
		t.Fatalf("reader returned %d records, want 18 (LSNs 2..19): %v", len(got), got)
	}
	for i, rec := range got {
		if want := fmt.Sprintf("%d:record-%02d-payload", i+2, i+2); rec != want {
			t.Fatalf("record %d: %q, want %q", i, rec, want)
		}
	}
}

// TestReaderErrorsWhenLogResetUnderIt: once ResetTo discards the
// reader's segments, Next is an error, even when the reset log goes on
// from exactly the reader's next LSN.
func TestReaderErrorsWhenLogResetUnderIt(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range []string{"one", "two"} {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	r := l.Reader(1)
	defer r.Close()
	if got := readAll(t, r); len(got) != 2 {
		t.Fatalf("before the reset: %v", got)
	}
	if err := l.ResetTo(3); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if lsn, p, ok, err := r.Next(); err == nil {
		t.Fatalf("reader over a reset log: lsn=%d %q ok=%v, want an error", lsn, p, ok)
	}
}

// TestReaderErrorsWhenTruncatedPastIt: truncation that removes records
// a reader has not returned yet is an error; truncation of a segment the
// reader has read to its end is not.
func TestReaderErrorsWhenTruncatedPastIt(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("record-%02d-payload", l.NextLSN()))); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(1)
	behind, ahead := l.Reader(1), l.Reader(1)
	defer behind.Close()
	defer ahead.Close()
	if got := readAll(t, behind); len(got) != 1 {
		t.Fatalf("behind read %v, want LSN 1 only", got)
	}
	commit(2) // segment 1 now holds LSNs 1..3 and is full
	if got := readAll(t, ahead); len(got) != 3 {
		t.Fatalf("ahead read %v, want LSNs 1..3", got)
	}
	commit(2)
	if err := l.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	if l.FirstLSN() != 4 {
		t.Fatalf("first retained LSN %d, want 4", l.FirstLSN())
	}
	if got := readAll(t, ahead); strings.Join(got, " ") != "4:record-04-payload 5:record-05-payload" {
		t.Fatalf("ahead after truncation: %v, want LSNs 4..5", got)
	}
	if lsn, p, ok, err := behind.Next(); err == nil {
		t.Fatalf("reader behind the truncation: lsn=%d %q ok=%v, want an error", lsn, p, ok)
	}
}

// TestReaderFollowsConcurrentCommits races a reader's refreshes against
// an appender committing across segment rotations: every record arrives
// once, in order.
func TestReaderFollowsConcurrentCommits(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{SegmentBytes: 256, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const records = 600
	var (
		wg   sync.WaitGroup
		werr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= records; i++ {
			if _, werr = l.Append([]byte(fmt.Sprintf("rec-%d", i))); werr != nil {
				return
			}
			if i%3 == 0 || i == records {
				if werr = l.Commit(); werr != nil {
					return
				}
			}
		}
	}()
	defer wg.Wait() // the appender finishes before l.Close on every path
	r := l.Reader(1)
	defer r.Close()
	next := uint64(1)
	deadline := time.Now().Add(10 * time.Second)
	for next <= records {
		lsn, p, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if time.Now().After(deadline) {
				t.Fatalf("reader stuck before LSN %d", next)
			}
			runtime.Gosched()
			continue
		}
		if want := fmt.Sprintf("rec-%d", next); lsn != next || string(p) != want {
			t.Fatalf("read lsn %d %q, want %d %q", lsn, p, next, want)
		}
		next++
	}
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if lsn, _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("after the last record: lsn=%d ok=%v err=%v, want the end", lsn, ok, err)
	}
}
