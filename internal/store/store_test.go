package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

func testSnapshot(lsn uint64) *Snapshot {
	return &Snapshot{
		LSN:         lsn,
		Impressions: 100,
		Clicks:      7,
		Dropped:     2,
		Pages: []PageRecord{
			{ID: 1, Text: "alpha topic page", Popularity: 12.5, Birth: 0, Aware: true, Impressions: 40, Clicks: 5, FirstImpNanos: 111},
			{ID: 9, Text: "beta topic page", Popularity: 0, Birth: 1, Aware: false, Impressions: 3, Clicks: 0, FirstImpNanos: 222},
		},
		Slots: []SlotRecord{{Slot: 1, Impressions: 60, Clicks: 6}, {Slot: 2, Impressions: 40, Clicks: 1}},
		Arms: []ArmTallyRecord{
			{Name: "control", Impressions: 50, Clicks: 2, Discoveries: 0, TTFCSumNanos: 0, TTFCCount: 0},
			{Name: "treatment", Impressions: 50, Clicks: 5, Discoveries: 3, TTFCSumNanos: 999, TTFCCount: 2},
		},
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot(42)
	got, err := decodeSnapshot(encodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	enc := encodeSnapshot(testSnapshot(42))
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		mut := tc.mut(append([]byte(nil), enc...))
		if _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("%s: decode accepted corrupt snapshot", tc.name)
		}
	}
}

func TestOpenWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 2, Arms: []ArmMeta{{Name: "default", Spec: "selective:1:0.1"}}}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Shard(0)
	if snap, err := sh.LatestSnapshot(); err != nil || snap != nil {
		t.Fatalf("fresh shard LatestSnapshot = %v, %v; want nil, nil", snap, err)
	}
	if err := sh.WriteSnapshot(testSnapshot(5), false); err != nil {
		t.Fatal(err)
	}
	if err := sh.WriteSnapshot(testSnapshot(9), false); err != nil {
		t.Fatal(err)
	}
	snap, err := sh.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN != 9 {
		t.Fatalf("latest snapshot LSN = %d, want 9", snap.LSN)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same shape; the meta survives and the arm set is
	// refreshed.
	s2, err := Open(dir, Meta{Shards: 2, Arms: []ArmMeta{{Name: "only", Spec: "none"}}}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if m := s2.Meta(); len(m.Arms) != 1 || m.Arms[0].Name != "only" {
		t.Fatalf("reopened meta arms = %+v", m.Arms)
	}
}

func TestOpenRejectsShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 4}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir, Meta{Shards: 8}, wal.Options{}); err == nil ||
		!strings.Contains(err.Error(), "4 shards") {
		t.Fatalf("shard mismatch error = %v", err)
	}
}

func TestLatestSnapshotFallsBackPastCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 1}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.Shard(0)
	if err := sh.WriteSnapshot(testSnapshot(3), true); err != nil {
		t.Fatal(err)
	}
	if err := sh.WriteSnapshot(testSnapshot(8), true); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot in place.
	path := filepath.Join(sh.dir, snapName(8))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := sh.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.LSN != 3 {
		t.Fatalf("fallback snapshot LSN = %d, want 3", snap.LSN)
	}
}

func TestWriteSnapshotPrunesAndTruncates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 1}, wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.Shard(0)
	for i := 0; i < 12; i++ {
		if _, err := sh.Log.Append([]byte("payload-payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
		if err := sh.Log.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := sh.Log.Size()
	for _, lsn := range []uint64{2, 5, 11} {
		if err := sh.WriteSnapshot(testSnapshot(lsn), false); err != nil {
			t.Fatal(err)
		}
	}
	lsns, err := sh.snapshotLSNs()
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 2 || lsns[0] != 5 || lsns[1] != 11 {
		t.Fatalf("retained snapshots = %v, want [5 11]", lsns)
	}
	if sh.Log.Size() >= sizeBefore {
		t.Fatalf("WAL not truncated behind snapshot (size %d -> %d)", sizeBefore, sh.Log.Size())
	}
	// Records above the snapshot LSN must survive truncation.
	var lastSeen uint64
	if err := sh.Log.Replay(12, func(lsn uint64, p []byte) error { lastSeen = lsn; return nil }); err != nil {
		t.Fatal(err)
	}
	if lastSeen != 12 {
		t.Fatalf("record 12 lost by truncation (last seen %d)", lastSeen)
	}
}

func TestOpenReadLoadsStoredMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 3, Arms: []ArmMeta{{Name: "a", Spec: "uniform:1:0.3"}}}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != 3 || len(r.Meta().Arms) != 1 || r.Meta().Arms[0].Spec != "uniform:1:0.3" {
		t.Fatalf("OpenRead meta = %+v", r.Meta())
	}
	// A reader must refuse a non-corpus path WITHOUT littering it: no
	// LOCK file in a mistyped empty dir, no directory created for a
	// nonexistent path.
	empty := t.TempDir()
	if _, err := OpenRead(empty); err == nil {
		t.Fatal("OpenRead of an empty dir must fail (no meta.json)")
	}
	if _, err := os.Stat(filepath.Join(empty, "LOCK")); !os.IsNotExist(err) {
		t.Fatalf("OpenRead created a LOCK file in a non-corpus dir (stat err %v)", err)
	}
	typo := filepath.Join(empty, "dta")
	if _, err := OpenRead(typo); err == nil {
		t.Fatal("OpenRead of a nonexistent dir must fail")
	}
	if _, err := os.Stat(typo); !os.IsNotExist(err) {
		t.Fatalf("OpenRead created the mistyped directory (stat err %v)", err)
	}
}

// TestDirectoryLockExcludesConcurrentOpens pins the flock protocol: one
// serving corpus per data dir, and no reader while a server holds it.
func TestDirectoryLockExcludesConcurrentOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 1}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Meta{Shards: 1}, wal.Options{}); err == nil {
		t.Fatal("second serving Open of a locked dir must fail")
	}
	if _, err := OpenRead(dir); err == nil {
		t.Fatal("OpenRead of a dir a server holds exclusively must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Released: readers may now open (shared), and two readers coexist.
	r1, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	// But a server cannot start while readers hold the shared lock.
	if _, err := Open(dir, Meta{Shards: 1}, wal.Options{}); err == nil {
		t.Fatal("serving Open must fail while readers hold the dir")
	}
}

// TestTruncationPreservesFallbackSnapshotCoverage pins the review fix:
// the WAL is truncated behind the OLDER retained snapshot, so when the
// newest snapshot is unreadable, the fallback snapshot plus the
// retained log still reconstructs everything.
func TestTruncationPreservesFallbackSnapshotCoverage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Meta{Shards: 1}, wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.Shard(0)
	for i := 1; i <= 12; i++ {
		if _, err := sh.Log.Append([]byte("payload-payload-payload-payload")); err != nil {
			t.Fatal(err)
		}
		if err := sh.Log.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.WriteSnapshot(testSnapshot(5), false); err != nil {
		t.Fatal(err)
	}
	if err := sh.WriteSnapshot(testSnapshot(11), false); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot: recovery must fall back to LSN 5 and
	// find every record above 5 still in the log.
	path := filepath.Join(sh.dir, snapName(11))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := sh.LatestSnapshot()
	if err != nil || snap.LSN != 5 {
		t.Fatalf("fallback snapshot = %+v, %v", snap, err)
	}
	seen := map[uint64]bool{}
	if err := sh.Log.Replay(snap.LSN+1, func(lsn uint64, p []byte) error {
		seen[lsn] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for lsn := snap.LSN + 1; lsn <= 12; lsn++ {
		if !seen[lsn] {
			t.Fatalf("record %d missing: truncation outran the fallback snapshot", lsn)
		}
	}
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }
