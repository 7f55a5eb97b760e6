package wal

import "testing"

// Each benchmark calls drainOS (sync_linux.go) before ResetTimer: it
// forces every dirty page queued by earlier benchmarks (or the warm-up
// commits) to disk so the timed writes don't pay for the writeback
// backlog of whichever benchmark ran before — the cross-benchmark
// interference that once made the cheaper in-place record path measure
// SLOWER than Append.
//
// Both benchmarks open their log with FsyncNone: they time the framing
// and the write, which is what the WALAppendRecord/WALAppend ratio gate
// compares. With one fsync per 64 records, the fsync dominated both
// sides at 100 iterations and its variance alone tripped the gate.
// ServeFeedbackDurable gates the fsync path.

// BenchmarkWALAppend measures the group-commit append path the serving
// layer's shards run: a batch of framed records buffered with Append and
// written by one Commit. The payload is sized like a feedback event
// record.
func BenchmarkWALAppend(b *testing.B) {
	const batch = 64
	payload := make([]byte, 48)
	for i := range payload {
		payload[i] = byte(i)
	}
	l, _, err := Open(b.TempDir(), Options{Fsync: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	// Warm the frame buffer to steady-state capacity before the timer.
	for i := 0; i < batch; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	drainOS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
		if (i+1)%batch == 0 {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALAppendRecord measures the in-place record path
// (BeginRecord/EndRecord) the serving layer encodes with: the payload
// is appended straight into the commit buffer, skipping Append's
// encode-then-copy. Same batch shape and commit cadence as
// BenchmarkWALAppend, into a preallocated segment.
func BenchmarkWALAppendRecord(b *testing.B) {
	const batch = 64
	payload := make([]byte, 48)
	for i := range payload {
		payload[i] = byte(i)
	}
	l, _, err := Open(b.TempDir(), Options{Fsync: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	record := func() {
		buf, err := l.BeginRecord()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.EndRecord(append(buf, payload...)); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the frame buffer to steady-state capacity before the timer.
	for i := 0; i < batch; i++ {
		record()
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	drainOS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
		if (i+1)%batch == 0 {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
}
