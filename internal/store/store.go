// Package store owns the on-disk layout of a durable corpus: a data
// directory holding a meta.json describing the corpus shape, and one
// subdirectory per popularity shard with that shard's write-ahead log
// and its periodic state snapshots.
//
//	<datadir>/
//	  meta.json              corpus shape: shard count, declared arms
//	  shard-000/
//	    wal/wal-<lsn>.seg    the shard's segmented WAL (internal/wal)
//	    snap-<lsn>.snap      state snapshots, named by last applied LSN
//	  shard-001/ ...
//
// Boot-time recovery is: load the newest readable snapshot, replay the
// WAL tail above its LSN, verify the log covers the gap. Snapshots are
// written to a temp file, fsynced, then renamed — a crash mid-snapshot
// leaves the previous snapshot authoritative. The two newest snapshots
// are retained so a snapshot that fails to decode (partial sync, bit
// rot) still has a fallback, and the WAL is truncated only behind the
// OLDER retained snapshot — so every retained snapshot plus the
// retained log reconstructs the shard, making the fallback a real
// guarantee. A serving corpus flocks the directory exclusively;
// offline readers take it shared.
//
// The snapshot payload is a versioned little-endian binary encoding
// with a trailing CRC-32C, decoded strictly; the schema types here are
// deliberately serving-layer-neutral so offline tools (the replay
// evaluator) read them without importing the server.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/faultfs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// MetaVersion is the current meta.json schema version.
const MetaVersion = 1

// ArmMeta records one declared experiment arm: its name and the compact
// spec string of its policy at the time the corpus ran. The offline
// replay evaluator uses these as the baseline policies a counterfactual
// run swaps out.
type ArmMeta struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// Meta is the corpus shape persisted as meta.json.
type Meta struct {
	Version int       `json:"version"`
	Shards  int       `json:"shards"`
	Arms    []ArmMeta `json:"arms,omitempty"`
}

// PageRecord is one page's full durable state inside a snapshot.
type PageRecord struct {
	ID            int
	Text          string
	Popularity    float64
	Birth         int
	Aware         bool
	Impressions   int64
	Clicks        int64
	FirstImpNanos int64
}

// ArmTallyRecord is one arm's per-shard telemetry contribution.
type ArmTallyRecord struct {
	Name         string
	Impressions  uint64
	Clicks       uint64
	Discoveries  uint64
	TTFCSumNanos int64
	TTFCCount    uint64
}

// SlotRecord is one result position's per-shard telemetry contribution.
type SlotRecord struct {
	Slot        int
	Impressions uint64
	Clicks      uint64
}

// Snapshot is a shard's full durable state as of applying record LSN.
type Snapshot struct {
	LSN         uint64
	Pages       []PageRecord
	Impressions uint64
	Clicks      uint64
	Dropped     uint64
	Slots       []SlotRecord
	Arms        []ArmTallyRecord
}

// Shard is one shard's persistence: its WAL and snapshot directory.
type Shard struct {
	dir string
	// inject, when non-nil, subjects snapshot writes to the same fault
	// plan as the shard's WAL (it is copied from wal.Options.Inject).
	inject *faultfs.Injector
	// Log is the shard's write-ahead log, opened (and torn-tail
	// recovered) by store.Open.
	Log *wal.Log
	// Recover is what wal.Open found: retained LSN range and torn bytes.
	Recover wal.RecoverInfo
	// truncFloor holds back WAL truncation: WriteSnapshot never deletes
	// segments containing records above this LSN, regardless of snapshot
	// retention. A replication leader sets it to the minimum LSN its
	// registered followers have acknowledged, so a lagging follower can
	// always resume from frames instead of a full snapshot. Initialized
	// to NoTruncateFloor (no constraint).
	truncFloor atomic.Uint64
}

// NoTruncateFloor disables the truncation floor (the default).
const NoTruncateFloor = ^uint64(0)

// SetTruncateFloor bounds WAL truncation: records with LSN > lsn stay on
// disk across snapshots until the floor is raised. Safe for concurrent
// use with WriteSnapshot.
func (sh *Shard) SetTruncateFloor(lsn uint64) { sh.truncFloor.Store(lsn) }

// Store is an open data directory.
type Store struct {
	dir    string
	meta   Meta
	shards []*Shard
	lock   *os.File // flock on <dir>/LOCK, held until Close
}

// Open opens (creating if absent) the data directory for serving with
// the given shape. An existing directory must agree on the shard count —
// pages hash to shards by ID, so reopening with a different count would
// silently misroute every page. The stored arm set is refreshed to the
// current one (it describes this run's logging policies).
func Open(dir string, meta Meta, walOpts wal.Options) (*Store, error) {
	s, err := open(dir, &meta, walOpts)
	if err != nil {
		return nil, err
	}
	meta.Version = MetaVersion
	if err := writeMeta(dir, meta); err != nil {
		s.Close()
		return nil, err
	}
	s.meta = meta
	return s, nil
}

// OpenRead opens an existing data directory for offline reading (the
// replay evaluator). The shape comes from the stored meta.json; no meta
// is rewritten, the WALs open read-only (a torn tail is skipped, never
// truncated), and the directory lock is taken shared — so reading a
// data dir a live server holds exclusively fails fast instead of racing
// its writes.
func OpenRead(dir string) (*Store, error) {
	return open(dir, nil, wal.Options{Fsync: wal.FsyncNone, ReadOnly: true})
}

// open is the shared body: meta handling differs between serving
// (validate against want) and reading (load as-is).
func open(dir string, want *Meta, walOpts wal.Options) (*Store, error) {
	if want != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else if _, err := os.Stat(filepath.Join(dir, "meta.json")); err != nil {
		// A reader must not litter a mistyped path with directories and
		// lock files; refuse before touching anything. (readMeta below
		// re-validates under the lock.)
		return nil, fmt.Errorf("store: %s is not a corpus data dir (no meta.json)", dir)
	}
	// A serving corpus holds the directory exclusively (two daemons on
	// one dir would interleave conflicting LSNs); readers hold it shared,
	// so offline replay cannot open a directory a live server owns.
	lock, err := lockDir(dir, want != nil)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		lock.Close()
		return nil, err
	}
	stored, err := readMeta(dir)
	if err != nil {
		return fail(err)
	}
	meta := Meta{Version: MetaVersion}
	switch {
	case stored == nil && want == nil:
		return fail(fmt.Errorf("store: %s has no meta.json (not a corpus data dir)", dir))
	case stored == nil:
		meta = *want
	case want == nil:
		meta = *stored
	default:
		if stored.Shards != want.Shards {
			return fail(fmt.Errorf(
				"store: data dir %s was written with %d shards, corpus configured with %d — "+
					"pages hash by shard count, so reopening would misroute them; "+
					"use the original shard count or a fresh data dir",
				dir, stored.Shards, want.Shards))
		}
		meta = *want
	}
	if meta.Shards <= 0 {
		return fail(fmt.Errorf("store: invalid shard count %d", meta.Shards))
	}
	s := &Store{dir: dir, meta: meta, lock: lock}
	if want != nil {
		// Sweep temp files a crash mid-atomicWrite orphaned; without this
		// a crash-looping deployment leaks one full-snapshot-sized file
		// per shard per crash. Readers never mutate the dir.
		sweepTemps(dir)
	}
	for i := 0; i < meta.Shards; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		if want != nil {
			sweepTemps(sdir)
		}
		l, info, err := wal.Open(filepath.Join(sdir, "wal"), walOpts)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		sh := &Shard{dir: sdir, inject: walOpts.Inject, Log: l, Recover: info}
		sh.truncFloor.Store(NoTruncateFloor)
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// sweepTemps removes orphaned atomicWrite temp files (best effort; the
// dir may not exist yet on first boot).
func sweepTemps(dir string) {
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	for _, t := range tmps {
		_ = os.Remove(t)
	}
}

// Meta returns the store's corpus shape.
func (s *Store) Meta() Meta { return s.meta }

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Shard returns shard i's persistence.
func (s *Store) Shard(i int) *Shard { return s.shards[i] }

// Close closes every shard WAL, committing buffered records first, and
// releases the directory lock.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		if sh != nil && sh.Log != nil {
			if err := sh.Log.Close(); first == nil && err != nil {
				first = err
			}
		}
	}
	if s.lock != nil {
		if err := s.lock.Close(); first == nil && err != nil {
			first = err
		}
		s.lock = nil
	}
	return first
}

// lockDir takes a flock on <dir>/LOCK: exclusive for a serving corpus,
// shared for readers. Non-blocking — a held lock is a configuration
// error (second daemon, replay against a live server), not something to
// wait out.
func lockDir(dir string, exclusive bool) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	if err := syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB); err != nil {
		f.Close()
		mode := "for reading (a serving corpus holds it exclusively — stop the server or copy the dir)"
		if exclusive {
			mode = "exclusively (is another corpus already serving this data dir?)"
		}
		return nil, fmt.Errorf("store: cannot lock %s %s: %w", dir, mode, err)
	}
	return f, nil
}

func readMeta(dir string) (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt meta.json: %w", err)
	}
	if m.Version != MetaVersion {
		return nil, fmt.Errorf("store: meta.json version %d, this build reads %d", m.Version, MetaVersion)
	}
	return &m, nil
}

func writeMeta(dir string, m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return atomicWrite(dir, "meta.json", append(data, '\n'), nil)
}

// atomicWrite writes name under dir via temp file + fsync + rename,
// routing the write and fsync through inject when one is configured.
func atomicWrite(dir, name string, data []byte, inject *faultfs.Injector) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if inject != nil {
		if _, err = inject.Write(tmp, data); err == nil {
			err = inject.Sync(tmp)
		}
	} else if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	_ = wal.SyncDir(dir)
	return nil
}

// snapName renders a snapshot filename for the given LSN.
func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// snapshotLSNs lists the shard's snapshot LSNs, ascending.
func (sh *Shard) snapshotLSNs() ([]uint64, error) {
	entries, err := os.ReadDir(sh.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
		if err != nil {
			continue // foreign file; recovery ignores it
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// LatestSnapshot loads the shard's newest readable snapshot, falling
// back to an older retained one when the newest fails to decode. It
// returns (nil, nil) when the shard has no snapshot at all.
func (sh *Shard) LatestSnapshot() (*Snapshot, error) {
	lsns, err := sh.snapshotLSNs()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(lsns) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(sh.dir, snapName(lsns[i])))
		if err != nil {
			lastErr = err
			continue
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			lastErr = fmt.Errorf("store: %s: %w", snapName(lsns[i]), err)
			continue
		}
		return snap, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("store: no readable snapshot: %w", lastErr)
	}
	return nil, nil
}

// WriteSnapshot durably writes the shard's state, prunes all but the two
// newest snapshots, and — unless keepLog is set — truncates the WAL
// behind the OLDER retained snapshot, never the one just written: if the
// newest snapshot later fails to decode (partial sync, bit rot), the
// fallback snapshot still has every record above its own LSN on disk, so
// the two-snapshot retention is a real recovery guarantee rather than a
// dead file. The very first snapshot therefore truncates nothing. With
// keepLog the full event history is retained for offline counterfactual
// replay; snapshots then only bound recovery time, not disk.
func (sh *Shard) WriteSnapshot(snap *Snapshot, keepLog bool) error {
	if err := atomicWrite(sh.dir, snapName(snap.LSN), encodeSnapshot(snap), sh.inject); err != nil {
		return err
	}
	lsns, err := sh.snapshotLSNs()
	if err != nil {
		return err
	}
	for i := 0; i < len(lsns)-2; i++ {
		if lsns[i] == snap.LSN {
			continue
		}
		if err := os.Remove(filepath.Join(sh.dir, snapName(lsns[i]))); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if keepLog {
		return nil
	}
	if retained, err := sh.snapshotLSNs(); err != nil {
		return err
	} else if len(retained) >= 2 {
		limit := retained[len(retained)-2]
		if floor := sh.truncFloor.Load(); floor < limit {
			limit = floor
		}
		return sh.Log.TruncateBefore(limit)
	}
	return nil
}

// Snapshot binary format: magic, version, then the fields in order, all
// integers as (u)varints, floats as fixed 8-byte IEEE-754 bits, strings
// length-prefixed; a trailing fixed CRC-32C over everything before it.
const snapMagic = "SDSNAP"
const snapVersion = 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot serializes a snapshot in the on-disk format. The
// replication catch-up path ships exactly these bytes to a follower
// whose requested WAL position has been truncated away, so wire and
// disk stay one format.
func EncodeSnapshot(s *Snapshot) []byte { return encodeSnapshot(s) }

// DecodeSnapshot parses EncodeSnapshot's output, verifying magic,
// version and the CRC trailer.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return decodeSnapshot(data) }

func encodeSnapshot(s *Snapshot) []byte {
	b := []byte(snapMagic)
	b = append(b, snapVersion)
	b = binary.AppendUvarint(b, s.LSN)
	b = binary.AppendUvarint(b, s.Impressions)
	b = binary.AppendUvarint(b, s.Clicks)
	b = binary.AppendUvarint(b, s.Dropped)
	b = binary.AppendUvarint(b, uint64(len(s.Pages)))
	for i := range s.Pages {
		p := &s.Pages[i]
		b = binary.AppendVarint(b, int64(p.ID))
		b = wire.AppendString(b, p.Text)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Popularity))
		b = binary.AppendVarint(b, int64(p.Birth))
		if p.Aware {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendVarint(b, p.Impressions)
		b = binary.AppendVarint(b, p.Clicks)
		b = binary.AppendVarint(b, p.FirstImpNanos)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Slots)))
	for _, sl := range s.Slots {
		b = binary.AppendUvarint(b, uint64(sl.Slot))
		b = binary.AppendUvarint(b, sl.Impressions)
		b = binary.AppendUvarint(b, sl.Clicks)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Arms)))
	for _, a := range s.Arms {
		b = wire.AppendString(b, a.Name)
		b = binary.AppendUvarint(b, a.Impressions)
		b = binary.AppendUvarint(b, a.Clicks)
		b = binary.AppendUvarint(b, a.Discoveries)
		b = binary.AppendVarint(b, a.TTFCSumNanos)
		b = binary.AppendUvarint(b, a.TTFCCount)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// errSnap wraps every decode failure.
var errSnap = errors.New("corrupt snapshot")

// CheckPage vets a decoded page's birth and popularity, so that corrupt
// or hostile bytes fail the decode rather than crash the applier that
// places the page: the birth must lie in the search index's document-id
// range [0, MaxUint32], and the popularity must be finite and
// non-negative. The snapshot decoder and the serving layer's WAL record
// decoder both apply it.
func CheckPage(id, birth int, pop float64) error {
	if birth < 0 || int64(birth) > math.MaxUint32 {
		return fmt.Errorf("page %d: birth %d outside [0, %d]", id, birth, uint32(math.MaxUint32))
	}
	if !(pop >= 0) || math.IsInf(pop, 1) {
		return fmt.Errorf("page %d: popularity %v is negative or non-finite", id, pop)
	}
	return nil
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+1+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errSnap
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: CRC mismatch", errSnap)
	}
	if data[len(snapMagic)] != snapVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", errSnap, data[len(snapMagic)], snapVersion)
	}
	r := wire.NewReader(body, len(snapMagic)+1)
	s := &Snapshot{
		LSN:         r.Uvarint(),
		Impressions: r.Uvarint(),
		Clicks:      r.Uvarint(),
		Dropped:     r.Uvarint(),
	}
	// Counts are bounded by the bytes alone, at each element's smallest
	// encoding: a page is five varints, a string, the popularity's eight
	// bytes and the aware byte; a slot three uvarints; an arm tally a
	// string and five varints.
	nPages := r.Count(math.MaxUint64, 15)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: page count: %w", errSnap, err)
	}
	seen := make(map[int]struct{})
	for i := uint64(0); i < nPages; i++ {
		p := PageRecord{
			ID:         int(r.Varint()),
			Text:       r.String(),
			Popularity: r.Float64(),
			Birth:      int(r.Varint()),
		}
		aware := r.Byte()
		p.Aware = aware == 1
		p.Impressions, p.Clicks, p.FirstImpNanos = r.Varint(), r.Varint(), r.Varint()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%w: page %d: %w", errSnap, i, err)
		}
		if aware > 1 {
			return nil, fmt.Errorf("%w: page %d: aware byte %d", errSnap, p.ID, aware)
		}
		if err := CheckPage(p.ID, p.Birth, p.Popularity); err != nil {
			return nil, fmt.Errorf("%w: %w", errSnap, err)
		}
		if _, dup := seen[p.ID]; dup {
			return nil, fmt.Errorf("%w: page %d appears twice", errSnap, p.ID)
		}
		seen[p.ID] = struct{}{}
		s.Pages = append(s.Pages, p)
	}
	nSlots := r.Count(math.MaxUint64, 3)
	for i := uint64(0); i < nSlots; i++ {
		s.Slots = append(s.Slots, SlotRecord{
			Slot:        int(r.Uvarint()),
			Impressions: r.Uvarint(),
			Clicks:      r.Uvarint(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: slots: %w", errSnap, err)
	}
	nArms := r.Count(math.MaxUint64, 6)
	for i := uint64(0); i < nArms; i++ {
		s.Arms = append(s.Arms, ArmTallyRecord{
			Name:         r.String(),
			Impressions:  r.Uvarint(),
			Clicks:       r.Uvarint(),
			Discoveries:  r.Uvarint(),
			TTFCSumNanos: r.Varint(),
			TTFCCount:    r.Uvarint(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: arm tallies: %w", errSnap, err)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %w", errSnap, err)
	}
	return s, nil
}
