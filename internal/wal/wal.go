// Package wal is a segmented append-only write-ahead log with CRC-framed
// records and group-commit fsync — the durability floor under the online
// serving layer's shard state.
//
// Records are opaque payloads framed as
//
//	[length uint32][crc uint32][payload]
//
// (little-endian, CRC-32C over the length bytes and the payload), written
// to numbered segment files named wal-%016x.seg after the LSN of their
// first record. LSNs are 1-based and monotone across segments, so a
// record's position in the logical log never changes when old segments
// are truncated away behind a snapshot.
//
// Appends buffer frames in memory; Commit writes every buffered frame
// with one Write call and makes it durable per the configured FsyncMode.
// That shape is group commit: a caller that batches many records per
// Commit pays one fsync for the whole batch, keeping the hot apply path
// off the fsync critical path (FsyncBatch). FsyncNone never syncs and
// leaves durability to OS writeback.
//
// Open validates the existing log: every frame of every segment is
// CRC-checked. A bad frame in the LAST segment is a torn write — the
// crash left a partial record at the tail — so Open physically truncates
// the torn suffix and reports how many bytes were dropped. A bad frame
// anywhere else means data after the corruption is unreachable without
// violating append order, so Open refuses with ErrCorrupt rather than
// silently dropping interior history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// FsyncMode selects when Commit makes appended records durable.
type FsyncMode int

const (
	// FsyncBatch fsyncs once per Commit: group commit, the default.
	FsyncBatch FsyncMode = iota
	// FsyncNone never fsyncs; durability is whatever the OS writeback
	// provides. Fastest, loses the tail on power failure.
	FsyncNone
)

// ParseFsyncMode maps the flag/config strings to a mode. The empty
// string selects FsyncBatch.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "batch":
		return FsyncBatch, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want batch or none)", s)
}

// String renders the mode as its flag form.
func (m FsyncMode) String() string {
	switch m {
	case FsyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ErrCorrupt reports a CRC or framing failure before the final segment's
// tail — interior history is damaged and the log cannot be trusted.
var ErrCorrupt = errors.New("wal: interior corruption")

const (
	frameHeader = 8 // uint32 length + uint32 crc
	// FrameOverhead is the framing cost per record on disk — what a
	// payload of n bytes adds to the log beyond n. Replication uses it
	// to account byte lag without re-framing.
	FrameOverhead = int64(frameHeader)
	// MaxRecord bounds a single record payload; a frame claiming more is
	// treated as corruption rather than a 4GB allocation.
	MaxRecord = 16 << 20
	// DefaultSegmentBytes rotates segments at 4MB so truncation behind a
	// snapshot reclaims space in bounded steps.
	DefaultSegmentBytes = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options sizes a Log. Zero values select defaults.
type Options struct {
	// Fsync is the commit durability mode (default FsyncBatch).
	Fsync FsyncMode
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// ReadOnly opens the log for replay only: a torn tail is noted and
	// skipped but NOT physically truncated, no file is opened for
	// appending, and Append fails. The mode for offline tools reading a
	// log they do not own.
	ReadOnly bool
	// Inject, when non-nil, routes segment writes and fsyncs through a
	// fault injector so tests and chaos scenarios can force short
	// writes, fsync errors, disk-full and latency spikes on this log.
	// Injected logs never use the SyncPool: the injector's sync plan
	// must observe exactly one sync per commit.
	Inject *faultfs.Injector
	// SyncPool, when non-nil, coalesces this log's durability barriers
	// with other logs on the same filesystem (see SyncPool). The log
	// still issues one logical sync per group commit; the pool decides
	// how many device round trips that costs.
	SyncPool *SyncPool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// segment is one on-disk file of the log.
type segment struct {
	path  string
	first uint64 // LSN of the first record
	last  uint64 // LSN of the last record (first-1 when empty)
	size  int64
}

// RecoverInfo describes what Open found.
type RecoverInfo struct {
	// FirstLSN and LastLSN bound the records retained on disk
	// (FirstLSN > LastLSN means the log is empty).
	FirstLSN, LastLSN uint64
	// TornBytes is how many trailing bytes of the last segment were
	// dropped as a torn write.
	TornBytes int64
	// Records is how many intact records the log holds.
	Records uint64
}

// Log is an open write-ahead log. Its mutating API is not safe for
// concurrent use; the serving layer gives each shard its own Log owned
// by the shard's single apply goroutine, and every call — Commit's write
// and sync included — runs on that goroutine. Reader, FirstLSN and Stats
// may be called from other goroutines: replication ships committed
// frames and health endpoints read counters while the apply loop keeps
// committing, so the metadata those read is guarded by segMu or atomics.
type Log struct {
	dir  string
	opts Options
	// segMu guards segments metadata (the slice and the per-segment
	// size/last fields) for cross-goroutine readers.
	segMu    sync.Mutex
	segments []segment
	// firstRetained is the LSN of the oldest record still on disk (or,
	// on an empty log, the LSN the next record will get). Guarded by
	// segMu so FirstLSN never touches nextLSN cross-goroutine.
	firstRetained uint64
	// resets counts ResetTo calls, so a Reader can tell that the log it
	// follows was discarded under it. Guarded by segMu.
	resets   uint64
	buf      []byte // frames appended since the last successful Commit
	bufFirst uint64 // LSN of the first buffered frame
	// pendingStart is the buffer offset of an open BeginRecord frame
	// (meaningful only between BeginRecord and EndRecord).
	pendingStart int
	nextLSN      uint64
	size         atomic.Int64 // bytes across all segments, excluding buffered frames

	active  *os.File
	dirSync bool // the active segment's directory entry is not durable yet
	// dirty means a failed Commit may have left bytes in the active
	// segment beyond the last durable frame (a partial write, or a full
	// write whose fsync failed and whose pages the kernel may since have
	// dropped). The next Commit or DropBuffered truncates back to the
	// last known-good size before touching the file again.
	dirty bool

	stats logStats
}

// logStats accumulates group-commit telemetry. The appender writes,
// health endpoints read; everything behind one small mutex since a
// commit already costs an fsync.
type logStats struct {
	mu      sync.Mutex
	commits uint64 // successful group commits (syncs when fsync is on)
	syncs   uint64 // durability barriers issued
	records uint64 // records made durable
	ring    [512]commitSample
	ringN   int // next slot
	ringLen int
}

type commitSample struct {
	records int32
	nanos   int64 // Commit-call-to-durable latency
	at      int64 // wall clock (UnixNano) when the commit became durable
}

// LogStats is a point-in-time snapshot of a log's group-commit behavior.
type LogStats struct {
	// Commits counts successful group commits; Syncs counts durability
	// barriers issued (equal to Commits except under FsyncNone).
	Commits, Syncs uint64
	// Records counts records made durable.
	Records uint64
	// MeanBatchRecords and P99BatchRecords describe how many records one
	// sync covers, over a recent window — the group-commit batch size.
	MeanBatchRecords float64
	P99BatchRecords  int
	// MeanCommitNanos and P99CommitNanos are Commit-call-to-durable
	// latencies over the same window.
	MeanCommitNanos int64
	P99CommitNanos  int64
	// CommitsPerSec is the recent commit rate (commits over the window's
	// wall-clock span; under fsync each commit is one durability barrier,
	// so this is also the fsync rate). Zero until the window has span.
	CommitsPerSec float64
}

func (s *logStats) note(records int, nanos int64) {
	s.mu.Lock()
	s.commits++
	s.records += uint64(records)
	s.ring[s.ringN] = commitSample{records: int32(records), nanos: nanos, at: time.Now().UnixNano()}
	s.ringN = (s.ringN + 1) % len(s.ring)
	if s.ringLen < len(s.ring) {
		s.ringLen++
	}
	s.mu.Unlock()
}

func (s *logStats) noteSync() {
	s.mu.Lock()
	s.syncs++
	s.mu.Unlock()
}

// Stats snapshots commit telemetry. Safe to call from any goroutine.
func (l *Log) Stats() LogStats {
	s := &l.stats
	s.mu.Lock()
	out := LogStats{Commits: s.commits, Syncs: s.syncs, Records: s.records}
	n := s.ringLen
	recs := make([]int32, 0, n)
	lats := make([]int64, 0, n)
	var sumR, sumN int64
	oldest := int64(0)
	if n > 0 {
		oldest = s.ring[0].at
		if n == len(s.ring) {
			oldest = s.ring[s.ringN].at
		}
	}
	for i := 0; i < n; i++ {
		smp := s.ring[i]
		recs = append(recs, smp.records)
		lats = append(lats, smp.nanos)
		sumR += int64(smp.records)
		sumN += smp.nanos
	}
	s.mu.Unlock()
	if n == 0 {
		return out
	}
	slices.Sort(recs)
	slices.Sort(lats)
	p99 := (n * 99) / 100
	if p99 >= n {
		p99 = n - 1
	}
	out.MeanBatchRecords = float64(sumR) / float64(n)
	out.P99BatchRecords = int(recs[p99])
	out.MeanCommitNanos = sumN / int64(n)
	out.P99CommitNanos = lats[p99]
	// Rate the window against now, not its last sample, so an idle log's
	// reported rate decays instead of freezing at its last burst.
	if span := time.Now().UnixNano() - oldest; span > 0 {
		out.CommitsPerSec = float64(n) / (float64(span) / 1e9)
	}
	return out
}

// Open validates the log in dir (creating it when absent), truncates any
// torn tail, and positions for appending.
func Open(dir string, opts Options) (*Log, RecoverInfo, error) {
	opts = opts.withDefaults()
	var info RecoverInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("wal: %w", err)
	}
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, info, err
	}
	l := &Log{dir: dir, opts: opts, nextLSN: 1}
	if len(segs) > 0 {
		// Truncation may have removed the log's prefix; contiguity is
		// required only from the first retained segment onward.
		l.nextLSN = segs[0].first
	}
	for i := range segs {
		seg := &segs[i]
		last := i == len(segs)-1
		if seg.first != l.nextLSN {
			return nil, info, fmt.Errorf("%w: segment %s starts at lsn %d, want %d",
				ErrCorrupt, filepath.Base(seg.path), seg.first, l.nextLSN)
		}
		n, validBytes, torn, err := validateSegment(seg.path)
		if err != nil {
			return nil, info, err
		}
		if torn > 0 {
			if !last {
				return nil, info, fmt.Errorf("%w: bad frame %d bytes into non-final segment %s",
					ErrCorrupt, validBytes, filepath.Base(seg.path))
			}
			// Replay bounds every read by seg.size, so a read-only open
			// can simply note the torn suffix without rewriting a file it
			// does not own.
			if !opts.ReadOnly {
				if err := os.Truncate(seg.path, validBytes); err != nil {
					return nil, info, fmt.Errorf("wal: truncating torn tail: %w", err)
				}
			}
			info.TornBytes = torn
		}
		seg.last = seg.first + n - 1
		seg.size = validBytes
		l.nextLSN = seg.last + 1
		l.size.Add(validBytes)
		info.Records += n
		l.segments = append(l.segments, *seg)
	}
	if len(l.segments) > 0 {
		info.FirstLSN = l.segments[0].first
		info.LastLSN = l.nextLSN - 1
		if !opts.ReadOnly {
			// Reopen the final segment for appending.
			lastSeg := &l.segments[len(l.segments)-1]
			f, err := os.OpenFile(lastSeg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, info, fmt.Errorf("wal: %w", err)
			}
			l.active = f
		}
	} else {
		info.FirstLSN = 1
		info.LastLSN = 0
	}
	if len(l.segments) > 0 {
		l.firstRetained = l.segments[0].first
	} else {
		l.firstRetained = l.nextLSN
	}
	return l, info, nil
}

// segmentName names the segment file whose first record has LSN first.
func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// scanSegments lists the segment files in LSN order.
func scanSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: unparseable segment name %q", name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), first: lsn})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// validateSegment CRC-checks every frame, returning the record count, the
// byte offset of the end of the last valid frame, and how many trailing
// bytes fail validation (0 = fully intact).
func validateSegment(path string) (records uint64, validBytes, tornBytes int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	off := int64(0)
	for {
		n, ok := frameAt(data, off)
		if !ok {
			return records, off, int64(len(data)) - off, nil
		}
		records++
		off += n
		if off == int64(len(data)) {
			return records, off, 0, nil
		}
	}
}

// frameAt validates the frame starting at off and returns its total
// length.
func frameAt(data []byte, off int64) (int64, bool) {
	if int64(len(data))-off < frameHeader {
		return 0, false
	}
	h := data[off : off+frameHeader]
	length := binary.LittleEndian.Uint32(h[0:4])
	crc := binary.LittleEndian.Uint32(h[4:8])
	if length > MaxRecord || off+frameHeader+int64(length) > int64(len(data)) {
		return 0, false
	}
	payload := data[off+frameHeader : off+frameHeader+int64(length)]
	sum := crc32.Update(crc32.Checksum(h[0:4], crcTable), crcTable, payload)
	if sum != crc {
		return 0, false
	}
	return frameHeader + int64(length), true
}

// appendFrame frames payload into dst.
func appendFrame(dst, payload []byte) []byte {
	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	sum := crc32.Update(crc32.Checksum(h[0:4], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(h[4:8], sum)
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// Append buffers one record and returns its LSN. The record is not
// durable — and not even written — until Commit.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.opts.ReadOnly {
		return 0, fmt.Errorf("wal: log opened read-only")
	}
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	lsn := l.nextLSN
	l.nextLSN++
	if len(l.buf) == 0 {
		l.bufFirst = lsn
	}
	l.buf = appendFrame(l.buf, payload)
	return lsn, nil
}

// BeginRecord starts a record in place: it reserves the frame header in
// the append buffer and returns the buffer for the caller to encode the
// payload directly into (with append), eliminating Append's
// encode-then-copy. The record takes effect — gets its LSN, has its
// header and CRC written — only at the matching EndRecord call, which
// must receive the (possibly reallocated) buffer back. Records may not
// be nested, and no other Log method may be called between the two.
func (l *Log) BeginRecord() ([]byte, error) {
	if l.opts.ReadOnly {
		return nil, fmt.Errorf("wal: log opened read-only")
	}
	if len(l.buf) == 0 {
		l.bufFirst = l.nextLSN
	}
	l.pendingStart = len(l.buf)
	l.buf = append(l.buf, make([]byte, frameHeader)...)
	return l.buf, nil
}

// EndRecord seals the record begun by BeginRecord: everything the
// caller appended past the reserved header becomes the payload, the
// header and CRC are written in place, and the record's LSN is
// returned. On error (an oversized payload) the buffer is rewound to
// its pre-BeginRecord state and the log remains usable.
func (l *Log) EndRecord(buf []byte) (uint64, error) {
	l.buf = buf
	start := l.pendingStart
	payload := buf[start+frameHeader:]
	if len(payload) > MaxRecord {
		l.buf = l.buf[:start]
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	h := buf[start : start+frameHeader]
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	sum := crc32.Update(crc32.Checksum(h[0:4], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(h[4:8], sum)
	lsn := l.nextLSN
	l.nextLSN++
	return lsn, nil
}

// Commit writes every record appended since the last Commit and makes
// the batch durable per the fsync mode — the group-commit boundary. It
// runs on the caller's goroutine: write, sync, then publish.
//
// Commit is transactional about the log's own state: nothing (segment
// bounds, sizes, the append buffer) is updated until the batch has been
// fully written AND synced — and, for the first batch of a new segment,
// until the segment's directory entry is durable too. On failure the
// buffered frames are retained and the log stays usable — the caller can
// retry Commit (which first truncates away any partial bytes the failed
// attempt left behind) or call DropBuffered to nack the batch. A failed
// fsync is treated like a failed write: the kernel may drop the dirty
// pages after reporting the error, so a bare re-fsync could silently
// "succeed" over lost data — the retry rewrites the batch from the
// beginning instead.
func (l *Log) Commit() error {
	if len(l.buf) == 0 {
		// Also every Commit on a read-only log: Append refuses there, so
		// nothing is ever buffered.
		return nil
	}
	start := time.Now()
	if err := l.ensureActive(l.bufFirst); err != nil {
		return err
	}
	if l.dirty {
		if err := l.rollback(); err != nil {
			return err
		}
	}
	// Anything past this point may leave bytes in the segment that the
	// published bounds do not cover.
	l.dirty = true
	if err := l.write(l.buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Fsync != FsyncNone {
		if err := l.sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.stats.noteSync()
	}
	if l.dirSync {
		if err := SyncDir(l.dir); err != nil {
			return err
		}
		l.dirSync = false
	}
	l.dirty = false
	n := int64(len(l.buf))
	last := l.nextLSN - 1
	l.segMu.Lock()
	seg := &l.segments[len(l.segments)-1]
	seg.size += n
	seg.last = last
	full := seg.size >= l.opts.SegmentBytes
	l.segMu.Unlock()
	l.size.Add(n)
	l.stats.note(int(last-l.bufFirst+1), time.Since(start).Nanoseconds())
	l.buf = l.buf[:0]
	if full {
		// Rotate: the next Commit opens a fresh segment. The batch is
		// already durable, so a close error cannot take it back.
		_ = l.active.Close()
		l.active = nil
	}
	return nil
}

// DropBuffered discards every record appended since the last successful
// Commit, rewinding the next LSN to reuse their slots, and truncates
// away any partial bytes a failed Commit left in the active segment.
// The nack path: after a Commit error the caller either retries Commit
// or calls this to give up on the batch.
func (l *Log) DropBuffered() error {
	if len(l.buf) > 0 {
		l.nextLSN = l.bufFirst
		l.buf = l.buf[:0]
	}
	if l.dirty {
		return l.rollback()
	}
	return nil
}

// rollback truncates the active segment back to its last known-good
// size, discarding bytes a failed Commit attempt may have landed. The
// active fd is opened O_APPEND, so subsequent writes continue at the
// new end of file.
func (l *Log) rollback() error {
	l.segMu.Lock()
	seg := l.segments[len(l.segments)-1]
	l.segMu.Unlock()
	if err := os.Truncate(seg.path, seg.size); err != nil {
		return fmt.Errorf("wal: rollback: %w", err)
	}
	l.dirty = false
	return nil
}

// write appends the batch to the active segment with one Write call,
// through the injector when one is configured.
func (l *Log) write(p []byte) error {
	if in := l.opts.Inject; in != nil {
		_, err := in.Write(l.active, p)
		return err
	}
	_, err := l.active.Write(p)
	return err
}

// sync makes the active segment's written frames durable: through the
// injector when one is configured, through the coalescing SyncPool when
// one is attached, and by plain fdatasync otherwise.
func (l *Log) sync() error {
	if in := l.opts.Inject; in != nil {
		return in.Sync(l.active)
	}
	if p := l.opts.SyncPool; p != nil {
		return p.Sync(l.active)
	}
	return fdatasync(l.active)
}

// ensureActive opens (rotating to) the segment the next write lands in,
// named by the LSN of the first record it will hold.
func (l *Log) ensureActive(first uint64) error {
	if l.active != nil {
		return nil
	}
	// active is nil only on a fresh/fully-truncated log or right after a
	// rotation close — both cases start a new segment (Open reopens a
	// final segment with room itself).
	path := filepath.Join(l.dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segMu.Lock()
	l.segments = append(l.segments, segment{path: path, first: first, last: first - 1})
	if len(l.segments) == 1 {
		l.firstRetained = first
	}
	l.segMu.Unlock()
	l.active = f
	// Reserve the segment's extents up front (keeping the logical size at
	// zero), so commits append into preallocated blocks instead of taking
	// block-allocation stalls on the fsync path. Best-effort.
	preallocate(f, l.opts.SegmentBytes)
	// The first commit that lands in the segment makes its directory
	// entry durable before publishing anything.
	l.dirSync = true
	return nil
}

// NextLSN returns the LSN the next appended record will get.
func (l *Log) NextLSN() uint64 { return l.nextLSN }

// FirstLSN returns the LSN of the oldest record still retained on disk
// (truncation moves it forward; on an empty log it is the LSN the next
// record will get). A replication leader uses it to decide whether a
// follower's requested start position has been truncated away. Safe to
// call from goroutines other than the appender.
func (l *Log) FirstLSN() uint64 {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return l.firstRetained
}

// Size returns the total bytes across all retained segments plus the
// frames buffered for the next Commit. Appender-only, like the buffer.
func (l *Log) Size() int64 { return l.size.Load() + int64(len(l.buf)) }

// ResetTo discards every retained segment and repositions the log so
// the next Append gets LSN lsn. Recovery uses it when a snapshot
// strictly supersedes the surviving log (an unsynced tail lost to power
// failure under FsyncNone, or deleted log files): every discarded
// record is <= the covering snapshot's LSN, so state is intact and the
// alternative — refusing to boot forever — helps nobody.
func (l *Log) ResetTo(lsn uint64) error {
	if l.opts.ReadOnly {
		return fmt.Errorf("wal: log opened read-only")
	}
	if l.active != nil {
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.active = nil
	}
	for _, seg := range l.segments {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.segMu.Lock()
	l.segments = nil
	l.firstRetained = lsn
	l.resets++
	l.segMu.Unlock()
	l.buf = l.buf[:0]
	l.size.Store(0)
	l.dirty = false
	l.nextLSN = lsn
	return SyncDir(l.dir)
}

// TruncateBefore deletes whole segments whose every record has LSN <=
// lsn. The active (final) segment is never deleted, so the log always
// retains its append position.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	kept := l.segments[:0]
	for i := range l.segments {
		seg := l.segments[i]
		if i < len(l.segments)-1 && seg.last <= lsn {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.size.Add(-seg.size)
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	if len(l.segments) > 0 {
		l.firstRetained = l.segments[0].first
	}
	return nil
}

// Replay streams every committed record with LSN >= from, in order, to
// fn, through a Reader: reads stop at the sizes validated at Open or
// published by Commit, so a torn tail a read-only open left in place is
// never parsed. Call it before appending (recovery) or after Commit.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	r := l.Reader(from)
	defer r.Close()
	for {
		lsn, payload, ok, err := r.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(lsn, payload); err != nil {
			return err
		}
	}
}

// Reader is a pull-style cursor over the log's committed records that
// follows the log as it grows: once Next has returned everything
// committed so far it reports the end (ok=false), and a later call picks
// up whatever has been committed since, across segment rotations. It
// keeps one segment file open and in memory only the bytes its last
// refresh read, never more than one segment's. The payload returned by
// Next aliases the reader's buffer and is valid only until the following
// Next call.
//
// Reads never pass a segment's committed size as published under segMu:
// every refresh re-reads the current segment from the last committed
// size the reader trusted, so bytes a failed or dropped commit left past
// that size are never parsed, and a batch later committed at the same
// LSNs is read from the file afresh. When the log is reset (ResetTo), or
// truncated past records the reader has not returned, Next reports an
// error rather than skip them or return stale frames.
//
// A Reader may run on a goroutine other than the appender's (replication
// ships from one) but is itself for one goroutine. Close releases its
// file.
type Reader struct {
	log    *Log
	resets uint64 // log.resets at creation
	from   uint64
	f      *os.File // current segment, nil before the first
	first  uint64   // current segment's first LSN
	off    int64    // committed bytes of the current segment read so far
	lsn    uint64   // LSN of the frame at buf[pos]
	buf    []byte   // committed bytes read at the last refresh
	pos    int
}

// Reader returns a cursor over records with LSN >= from, committed
// before or after this call. Safe to call from goroutines other than the
// appender.
func (l *Log) Reader(from uint64) *Reader {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	return &Reader{log: l, resets: l.resets, from: from}
}

// Next returns the next record, or ok=false when the reader has
// returned every record committed so far.
func (r *Reader) Next() (lsn uint64, payload []byte, ok bool, err error) {
	for {
		for r.pos == len(r.buf) {
			if more, err := r.refresh(); err != nil || !more {
				return 0, nil, false, err
			}
		}
		n, valid := frameAt(r.buf, int64(r.pos))
		if !valid {
			at := r.off - int64(len(r.buf)-r.pos)
			return 0, nil, false, fmt.Errorf("%w: frame at %d of %s", ErrCorrupt, at, segmentName(r.first))
		}
		lsn, payload = r.lsn, r.buf[r.pos+frameHeader:r.pos+int(n)]
		r.lsn++
		r.pos += int(n)
		if lsn >= r.from {
			return lsn, payload, true, nil
		}
	}
}

// refresh reads the committed bytes of the current segment past the
// reader's offset, moving on to the segment that starts at the reader's
// next LSN once the current one is read to its end or truncated away.
// It reports false when nothing new has been committed.
func (r *Reader) refresh() (bool, error) {
	size, more, err := r.locate()
	if err != nil || !more {
		return false, err
	}
	// Read outside segMu so the appender's commits never wait on it: the
	// bytes below a committed size never change, and the open file
	// keeps them even if the segment is removed meanwhile.
	n := int(size - r.off)
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	r.buf, r.pos = r.buf[:n], 0
	if _, err := r.f.ReadAt(r.buf, r.off); err != nil {
		r.buf = r.buf[:0]
		return false, fmt.Errorf("wal: reading %s: %w", segmentName(r.first), err)
	}
	r.off = size
	return true, nil
}

// locate picks, under segMu, the segment refresh reads and the
// committed size to read it to, opening the segment when the reader
// moves on to it. more is false when nothing new has been committed.
func (r *Reader) locate() (size int64, more bool, err error) {
	l := r.log
	l.segMu.Lock()
	defer l.segMu.Unlock()
	if l.resets != r.resets {
		return 0, false, fmt.Errorf("wal: reader at lsn %d: log reset under it", r.lsn)
	}
	i := 0
	if r.f == nil {
		for i < len(l.segments) && l.segments[i].last < r.from {
			i++
		}
		if i == len(l.segments) {
			return 0, false, nil
		}
	} else if i = l.segmentIndex(r.first); i == len(l.segments) || l.segments[i].size == r.off {
		// Read to its end, or removed: go on only from the segment
		// holding the next LSN, so no record is ever skipped.
		gone := i == len(l.segments)
		if i = l.segmentIndex(r.lsn); i == len(l.segments) {
			if gone {
				return 0, false, fmt.Errorf("wal: reader at lsn %d: %s truncated away", r.lsn, segmentName(r.first))
			}
			return 0, false, nil
		}
	}
	seg := l.segments[i]
	if r.f == nil || seg.first != r.first {
		// Opened under segMu: ResetTo cannot have put a new file at
		// this path since the resets check above.
		f, err := os.Open(seg.path)
		if err != nil {
			return 0, false, fmt.Errorf("wal: %w", err)
		}
		r.Close()
		r.f, r.first, r.off, r.lsn = f, seg.first, 0, seg.first
		return seg.size, true, nil
	}
	return seg.size, seg.size > r.off, nil
}

// segmentIndex returns the index of the segment whose first LSN is
// first, or len(l.segments) when there is none. Callers hold segMu.
func (l *Log) segmentIndex(first uint64) int {
	for i := range l.segments {
		if l.segments[i].first == first {
			return i
		}
	}
	return len(l.segments)
}

// Close releases the reader's open segment file.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Close commits buffered records and closes the active segment.
func (l *Log) Close() error {
	err := l.Commit()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wal: %w", cerr)
		}
		l.active = nil
	}
	return err
}

// SyncDir fsyncs a directory so renames, creates and removes within it
// are durable — the shared crash-durability primitive for every
// file-shuffling path in the data dir (the store's snapshot writer uses
// it too).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	// Some filesystems reject directory fsync (EINVAL); writeback gets
	// there eventually, so a failure here is not worth aborting a commit
	// whose data fsync already succeeded.
	_ = d.Sync()
	return nil
}
