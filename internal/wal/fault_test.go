package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
)

// replayAll replays the whole log into memory.
func replayAll(t *testing.T, l *Log) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	if err := l.Replay(1, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestCommitRetriesAfterTornWrite(t *testing.T) {
	inj := &faultfs.Injector{}
	l, _, err := Open(t.TempDir(), Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("clean commit: %v", err)
	}

	inj.SetTornWrites(true)
	inj.FailWrites(1)
	if _, err := l.Append([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, faultfs.ErrInjectedWrite) {
		t.Fatalf("commit error = %v, want injected write", err)
	}
	if got := inj.WriteFailures(); got != 1 {
		t.Fatalf("write failures = %d, want 1", got)
	}

	// Retry must first truncate the half-written batch, then land it
	// exactly once.
	if err := l.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	got := replayAll(t, l)
	want := map[uint64]string{1: "alpha", 2: "beta", 3: "gamma"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d: %v", len(got), len(want), got)
	}
	for lsn, payload := range want {
		if got[lsn] != payload {
			t.Fatalf("lsn %d = %q, want %q", lsn, got[lsn], payload)
		}
	}

	// Reopen: on-disk bytes must be frame-clean (no duplicated partial
	// prefix from the torn attempt).
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(l.dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if info.TornBytes != 0 {
		t.Fatalf("torn bytes after clean retry = %d, want 0", info.TornBytes)
	}
	if info.Records != 3 {
		t.Fatalf("records = %d, want 3", info.Records)
	}
}

func TestDropBufferedNacksBatchAndRewindsLSN(t *testing.T) {
	inj := &faultfs.Injector{}
	l, _, err := Open(t.TempDir(), Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	inj.SetTornWrites(true)
	inj.FailWrites(1)
	lsn, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Fatalf("lsn = %d, want 2", lsn)
	}
	if err := l.Commit(); err == nil {
		t.Fatal("commit should fail")
	}
	if err := l.DropBuffered(); err != nil {
		t.Fatalf("drop buffered: %v", err)
	}
	if got := l.NextLSN(); got != 2 {
		t.Fatalf("next lsn after drop = %d, want 2 (slot reused)", got)
	}

	// The dropped slot is reusable and the file is clean.
	if _, err := l.Append([]byte("replacement")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("commit after drop: %v", err)
	}
	got := replayAll(t, l)
	if got[1] != "keep" || got[2] != "replacement" || len(got) != 2 {
		t.Fatalf("replay = %v, want {1:keep 2:replacement}", got)
	}
}

func TestFsyncFailureRetainsBatchUntilRetry(t *testing.T) {
	inj := &faultfs.Injector{}
	l, _, err := Open(t.TempDir(), Options{Fsync: FsyncBatch, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inj.FailSyncs(2)
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, faultfs.ErrInjectedSync) {
		t.Fatalf("commit error = %v, want injected sync", err)
	}
	if err := l.Commit(); !errors.Is(err, faultfs.ErrInjectedSync) {
		t.Fatalf("second commit error = %v, want injected sync", err)
	}
	if got := inj.SyncFailures(); got != 2 {
		t.Fatalf("sync failures = %d, want 2", got)
	}
	// Fault budget exhausted: the retry rewrites and syncs for real.
	if err := l.Commit(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	got := replayAll(t, l)
	if got[1] != "one" || len(got) != 1 {
		t.Fatalf("replay = %v, want {1:one}", got)
	}
}

// readAll drains a reader up to the end of what is committed, as
// "lsn:payload" strings, failing the test on a read error.
func readAll(t *testing.T, r *Reader) []string {
	t.Helper()
	var out []string
	for {
		lsn, p, ok, err := r.Next()
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%d:%s", lsn, p))
	}
}

// TestReaderNeverReadsPastCommittedSize: a reader made before a commit
// whose fsync fails, and first read after it, sees nothing of the failed
// batch — its bytes are in the segment file, past the committed size —
// and once the batch is dropped and a different batch committed at the
// same LSNs, the reader returns the new records, each once.
func TestReaderNeverReadsPastCommittedSize(t *testing.T) {
	inj := &faultfs.Injector{}
	l, _, err := Open(t.TempDir(), Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	r := l.Reader(1)
	defer r.Close()

	inj.FailSyncs(1)
	for _, rec := range []string{"old-a", "old-b"} {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); !errors.Is(err, faultfs.ErrInjectedSync) {
		t.Fatalf("commit error = %v, want injected sync", err)
	}
	// The failed batch's bytes are in the file now; the reader's first
	// read must stop where the committed size does.
	if got := readAll(t, r); len(got) != 1 || got[0] != "1:zero" {
		t.Fatalf("after the failed commit: %v, want [1:zero]", got)
	}
	if err := l.DropBuffered(); err != nil {
		t.Fatal(err)
	}
	// Same LSNs, same frame sizes, different bytes.
	for _, rec := range []string{"new-a", "new-b"} {
		if _, err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, r); strings.Join(got, " ") != "2:new-a 3:new-b" {
		t.Fatalf("after the retry: %v, want [2:new-a 3:new-b]", got)
	}
	if got := readAll(t, r); len(got) != 0 {
		t.Fatalf("reader returned records twice: %v", got)
	}
}

// TestDirSyncFailureOnFirstCommitPublishesNothing fails the directory
// sync that makes a new segment's entry durable — after the data write
// and its fsync both succeeded — on a log's very first commit. Nothing
// may have been published: a retry must land each record exactly once,
// and DropBuffered must leave the file at the previous commit boundary
// (empty) with the LSNs free for reuse.
func TestDirSyncFailureOnFirstCommitPublishesNothing(t *testing.T) {
	// The directory sync only fails when the directory cannot be opened,
	// so the segment is opened first and the directory moved away before
	// Commit: the open fd still takes the write and the data fsync.
	open := func(t *testing.T) (l *Log, restore func()) {
		dir := filepath.Join(t.TempDir(), "log")
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for _, rec := range []string{"one", "two"} {
			if _, err := l.Append([]byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.ensureActive(l.bufFirst); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(dir, dir+".away"); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err == nil {
			t.Fatal("commit succeeded although the segment's directory entry could not be synced")
		}
		return l, func() {
			if err := os.Rename(dir+".away", dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	segmentSize := func(t *testing.T, l *Log) int64 {
		fi, err := os.Stat(l.segments[0].path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	t.Run("retry", func(t *testing.T) {
		l, restore := open(t)
		restore()
		if err := l.Commit(); err != nil {
			t.Fatalf("retry: %v", err)
		}
		got := replayAll(t, l)
		if len(got) != 2 || got[1] != "one" || got[2] != "two" {
			t.Fatalf("replay after retry = %v, want {1:one 2:two}", got)
		}
		if size, want := segmentSize(t, l), l.Size(); size != want {
			t.Fatalf("segment is %d bytes, log accounts for %d", size, want)
		}
	})

	t.Run("drop", func(t *testing.T) {
		l, restore := open(t)
		restore()
		if err := l.DropBuffered(); err != nil {
			t.Fatalf("drop buffered: %v", err)
		}
		if size := segmentSize(t, l); size != 0 {
			t.Fatalf("segment is %d bytes after drop, want 0 (the previous commit boundary)", size)
		}
		if got := l.NextLSN(); got != 1 {
			t.Fatalf("next lsn after drop = %d, want 1", got)
		}
		if _, err := l.Append([]byte("replacement")); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("commit after drop: %v", err)
		}
		got := replayAll(t, l)
		if len(got) != 1 || got[1] != "replacement" {
			t.Fatalf("replay after drop = %v, want {1:replacement}", got)
		}
	})
}

func TestDiskFullSurfacesENOSPC(t *testing.T) {
	inj := &faultfs.Injector{}
	l, _, err := Open(t.TempDir(), Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inj.SetDiskFull(true)
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("commit error = %v, want ENOSPC", err)
	}
	inj.Clear()
	if err := l.Commit(); err != nil {
		t.Fatalf("commit after space freed: %v", err)
	}
	got := replayAll(t, l)
	if got[1] != "x" || len(got) != 1 {
		t.Fatalf("replay = %v", got)
	}
}
