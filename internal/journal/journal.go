// Package journal is a write-ahead log with snapshots, built for the
// broker's durable state (subscription registry, proxy cache
// placement). Records are opaque byte slices framed with a length
// prefix and a CRC-32C checksum; appends are group-committed (while
// one fsync is in flight, later appends pile into the next one), and
// the fsync policy is configurable: every commit, on a background
// interval, or never (leave it to the OS).
//
// A journal directory holds two files: "wal.log", the append-only
// record log, and "snapshot.dat", the owner's last full-state
// snapshot. WriteSnapshot atomically replaces the snapshot
// (tmp + fsync + rename + dir fsync) and then truncates the log, so
// recovery cost stays proportional to the traffic since the last
// snapshot rather than the journal's lifetime.
//
// Replay tolerates exactly the damage a crash can cause: a torn final
// record (short frame, or a checksum mismatch on the frame that ends
// the file) is truncated away and counted. Any other checksum
// mismatch means the log was damaged at rest, and Open refuses it
// with a *CorruptError (errors.Is(err, ErrCorrupt)).
package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pubsubcd/internal/telemetry"
)

// FsyncPolicy selects when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every Append returns (group-committed:
	// concurrent appends share fsyncs).
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background interval
	// (Options.SyncInterval); a crash can lose up to one interval of
	// acknowledged appends.
	FsyncInterval
	// FsyncNone never syncs; durability is whatever the OS provides.
	FsyncNone
)

// String names the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag enum: always, interval or
// none.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf(`journal: invalid fsync policy %q (want "always", "interval" or "none")`, s)
	}
}

// ErrCorrupt is matched (errors.Is) by the *CorruptError a damaged
// journal produces.
var ErrCorrupt = errors.New("journal: corrupt")

// ErrClosed is returned by operations on a closed (or crashed)
// journal.
var ErrClosed = errors.New("journal: closed")

// CorruptError reports mid-log or snapshot corruption: a record whose
// checksum fails somewhere a torn write cannot reach.
type CorruptError struct {
	// Path is the damaged file.
	Path string
	// Offset is the byte offset of the bad frame.
	Offset int64
	// Reason describes the failure.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

const (
	walName     = "wal.log"
	snapName    = "snapshot.dat"
	snapTmpName = "snapshot.tmp"
	frameHeader = 8 // 4-byte length + 4-byte CRC-32C
	// MaxRecordSize bounds one record's payload.
	MaxRecordSize = 16 << 20
)

var (
	walMagic   = []byte("pscdwal1")
	snapMagic  = []byte("pscdsnp1")
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Options configures Open.
type Options struct {
	// Fsync is the sync policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// SyncInterval is the background sync period under FsyncInterval.
	// 0 means 100ms.
	SyncInterval time.Duration
	// FS overrides the filesystem (fault injection); nil means OSFS.
	FS FS
	// Telemetry, when non-nil, receives the journal's counters
	// (journal.appends, journal.fsyncs, ...). Nil disables (counters
	// still work, detached).
	Telemetry *telemetry.Registry
}

// metrics are the journal's pre-resolved counter handles. The
// telemetry registry hands out detached metrics when nil, so these
// are always usable.
type metrics struct {
	appends       *telemetry.Counter
	appendErrors  *telemetry.Counter
	fsyncs        *telemetry.Counter
	truncations   *telemetry.Counter
	snapshots     *telemetry.Counter
	snapshotNanos *telemetry.Histogram
}

// ReplayStats describes what Open found in the directory.
type ReplayStats struct {
	// Records is the number of valid log records recovered.
	Records int
	// HaveSnapshot reports whether a snapshot was present.
	HaveSnapshot bool
	// Truncated reports whether a torn tail was cut off.
	Truncated bool
	// TruncatedAt is the offset the log was cut at (when Truncated).
	TruncatedAt int64
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use except WriteSnapshot, which the owner must serialise
// against its own Appends (hold the lock that guards the journaled
// state while snapshotting it).
type Journal struct {
	dir      string
	fs       FS
	policy   FsyncPolicy
	m        metrics
	stats    ReplayStats
	stopSyn  chan struct{} // interval-sync goroutine stop; nil without one
	doneSyn  chan struct{}
	stopOnce sync.Once

	mu        sync.Mutex
	syncWait  *sync.Cond
	f         File
	size      int64
	writeSeq  uint64 // appends written to the file
	syncedSeq uint64 // appends covered by a completed fsync
	syncing   bool
	err       error // sticky: first write/sync failure poisons the log
	closed    bool

	snapshot []byte   // blob loaded at Open / written last
	records  [][]byte // replayed records, released by Replay
}

// Open opens (creating if needed) the journal directory, loads the
// snapshot, scans the log — truncating a torn tail, rejecting mid-log
// corruption — and returns a journal ready for appends. Consume the
// recovered state with Snapshot and Replay.
func Open(dir string, opts Options) (*Journal, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	reg := opts.Telemetry
	j := &Journal{
		dir:    dir,
		fs:     fsys,
		policy: opts.Fsync,
		m: metrics{
			appends:       reg.Counter("journal.appends"),
			appendErrors:  reg.Counter("journal.append_errors"),
			fsyncs:        reg.Counter("journal.fsyncs"),
			truncations:   reg.Counter("journal.replay_truncations"),
			snapshots:     reg.Counter("journal.snapshots"),
			snapshotNanos: reg.Histogram("journal.snapshot_ns", telemetry.LatencyBuckets()),
		},
	}
	j.syncWait = sync.NewCond(&j.mu)
	// A leftover snapshot.tmp is a snapshot that never committed.
	_ = fsys.Remove(filepath.Join(dir, snapTmpName))
	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := j.openLog(); err != nil {
		return nil, err
	}
	if j.policy == FsyncInterval {
		interval := opts.SyncInterval
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		j.stopSyn = make(chan struct{})
		j.doneSyn = make(chan struct{})
		go j.syncLoop(interval, j.stopSyn, j.doneSyn)
	}
	return j, nil
}

// loadSnapshot reads snapshot.dat if present.
func (j *Journal) loadSnapshot() error {
	path := filepath.Join(j.dir, snapName)
	f, err := j.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("journal: open snapshot: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("journal: read snapshot: %w", err)
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return &CorruptError{Path: path, Offset: 0, Reason: "bad snapshot magic"}
	}
	recs, valid, cerr := scanFrames(path, data[len(snapMagic):], int64(len(snapMagic)))
	if cerr != nil {
		return cerr
	}
	// The snapshot is written atomically, so a short or torn frame
	// means damage at rest, not a crash.
	if len(recs) != 1 || int64(len(snapMagic))+valid != int64(len(data)) {
		return &CorruptError{Path: path, Offset: int64(len(snapMagic)) + valid, Reason: "snapshot is not exactly one intact record"}
	}
	j.snapshot = recs[0]
	j.stats.HaveSnapshot = true
	return nil
}

// openLog opens wal.log for appending, scanning existing records and
// cutting off a torn tail.
func (j *Journal) openLog() error {
	path := filepath.Join(j.dir, walName)
	f, err := j.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: read log: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return fmt.Errorf("journal: write log header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: sync log header: %w", err)
		}
		j.f = f
		j.size = int64(len(walMagic))
		return nil
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		f.Close()
		return &CorruptError{Path: path, Offset: 0, Reason: "bad log magic"}
	}
	recs, valid, cerr := scanFrames(path, data[len(walMagic):], int64(len(walMagic)))
	if cerr != nil {
		f.Close()
		return cerr
	}
	end := int64(len(walMagic)) + valid
	if end < int64(len(data)) {
		// Torn tail: cut the log back to its valid prefix.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		j.stats.Truncated = true
		j.stats.TruncatedAt = end
		j.m.truncations.Inc()
	}
	j.f = f
	j.size = end
	j.records = recs
	j.stats.Records = len(recs)
	return nil
}

// scanFrames decodes consecutive frames from data (which starts at
// file offset base). It returns the decoded payloads and the length of
// the valid prefix. A frame that is short, oversized or checksum-bad
// at the very end of data is a torn tail — scanning just stops there.
// A checksum mismatch with bytes following the frame is mid-log
// corruption and returns a *CorruptError.
func scanFrames(path string, data []byte, base int64) ([][]byte, int64, error) {
	var recs [][]byte
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return recs, int64(off), nil // torn header
		}
		length := binary.BigEndian.Uint32(rest)
		sum := binary.BigEndian.Uint32(rest[4:])
		if length == 0 || length > MaxRecordSize {
			// The length field itself is untrustworthy, so nothing
			// after this point can be parsed: treat it as the tail.
			return recs, int64(off), nil
		}
		if len(rest) < frameHeader+int(length) {
			return recs, int64(off), nil // torn payload
		}
		payload := rest[frameHeader : frameHeader+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			if off+frameHeader+int(length) == len(data) {
				return recs, int64(off), nil // torn final record
			}
			return recs, int64(off), &CorruptError{
				Path:   path,
				Offset: base + int64(off),
				Reason: "checksum mismatch with records following",
			}
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += frameHeader + int(length)
	}
	return recs, int64(off), nil
}

// encodeFrame renders one record as a wire frame.
func encodeFrame(rec []byte) []byte {
	frame := make([]byte, frameHeader+len(rec))
	binary.BigEndian.PutUint32(frame, uint32(len(rec)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(rec, castagnoli))
	copy(frame[frameHeader:], rec)
	return frame
}

// Stats returns what Open recovered.
func (j *Journal) Stats() ReplayStats { return j.stats }

// Snapshot returns the snapshot blob loaded at Open (or written since)
// and whether one exists.
func (j *Journal) Snapshot() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshot, j.snapshot != nil
}

// Replay hands every recovered log record, in append order, to apply,
// then releases them. Recovery must treat records as
// possibly-already-applied: a record can land both in a snapshot and
// in the log when a crash interleaves with snapshotting.
func (j *Journal) Replay(apply func(rec []byte) error) error {
	j.mu.Lock()
	recs := j.records
	j.records = nil
	j.mu.Unlock()
	for _, rec := range recs {
		if err := apply(rec); err != nil {
			return err
		}
	}
	return nil
}

// Append adds one record to the log. Under FsyncAlways it returns
// only once the record is on stable storage (sharing fsyncs with
// concurrent appends); under the other policies it returns after the
// OS write. The first write or sync failure poisons the journal: every
// later Append returns the same error, because bytes after a failed
// write cannot be trusted.
func (j *Journal) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("journal: record of %d bytes exceeds max %d", len(rec), MaxRecordSize)
	}
	frame := encodeFrame(rec)
	j.mu.Lock()
	if err := j.usableLocked(); err != nil {
		j.mu.Unlock()
		j.m.appendErrors.Inc()
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		j.failLocked(fmt.Errorf("journal: append: %w", err))
		j.mu.Unlock()
		j.m.appendErrors.Inc()
		return err
	}
	j.size += int64(len(frame))
	j.writeSeq++
	j.m.appends.Inc()
	if j.policy != FsyncAlways {
		j.mu.Unlock()
		return nil
	}
	err := j.waitSyncedLocked(j.writeSeq) // unlocks j.mu
	if err != nil {
		j.m.appendErrors.Inc()
	}
	return err
}

// waitSyncedLocked blocks until an fsync covers seq, electing itself
// leader when no sync is in flight. Called with j.mu held; releases it.
func (j *Journal) waitSyncedLocked(seq uint64) error {
	for j.syncedSeq < seq && j.err == nil {
		if j.syncing {
			j.syncWait.Wait()
			continue
		}
		j.syncing = true
		target := j.writeSeq
		f := j.f
		j.mu.Unlock()
		err := f.Sync()
		j.mu.Lock()
		j.syncing = false
		if err != nil {
			j.failLocked(fmt.Errorf("journal: fsync: %w", err))
		} else {
			if target > j.syncedSeq {
				j.syncedSeq = target
			}
			j.m.fsyncs.Inc()
		}
		j.syncWait.Broadcast()
	}
	err := j.err
	j.mu.Unlock()
	return err
}

// AppendContext is Append, recorded as a "journal.append" span when ctx
// carries an active trace — the span covers the OS write and, under
// FsyncAlways, the (group-committed) fsync wait, so traces show exactly
// where durability cost lands in the pipeline.
func (j *Journal) AppendContext(ctx context.Context, rec []byte) error {
	_, sp := telemetry.StartSpan(ctx, "journal.append")
	if sp != nil {
		sp.SetAttrInt("bytes", int64(len(rec)))
		sp.SetAttr("fsync", j.policy.String())
	}
	err := j.Append(rec)
	sp.SetError(err)
	sp.End()
	return err
}

// Healthy reports the journal's sticky error state: nil while usable,
// the poisoning error after a failed write or fsync, ErrClosed after
// Close or Crash. Health endpoints surface this.
func (j *Journal) Healthy() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.usableLocked()
}

// Sync forces everything appended so far to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if err := j.usableLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	if j.syncedSeq >= j.writeSeq {
		j.mu.Unlock()
		return nil
	}
	return j.waitSyncedLocked(j.writeSeq) // unlocks j.mu
}

// usableLocked reports the sticky/closed state.
func (j *Journal) usableLocked() error {
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrClosed
	}
	return nil
}

// failLocked records the first fatal error.
func (j *Journal) failLocked(err error) {
	if j.err == nil {
		j.err = err
	}
	j.syncWait.Broadcast()
}

// WriteSnapshot atomically replaces the snapshot with blob and
// truncates the log: blob must capture every record appended so far.
// The owner must prevent concurrent Appends (serialise through the
// lock that guards the snapshotted state). Snapshot failures leave the
// log intact — durability falls back to full log replay.
func (j *Journal) WriteSnapshot(blob []byte) error {
	if len(blob) == 0 {
		return errors.New("journal: empty snapshot")
	}
	if len(blob) > MaxRecordSize {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds max %d", len(blob), MaxRecordSize)
	}
	start := time.Now()
	defer func() { j.m.snapshotNanos.Observe(time.Since(start).Nanoseconds()) }()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usableLocked(); err != nil {
		return err
	}
	tmp := filepath.Join(j.dir, snapTmpName)
	f, err := j.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create snapshot: %w", err)
	}
	_, err = f.Write(snapMagic)
	if err == nil {
		_, err = f.Write(encodeFrame(blob))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = j.fs.Remove(tmp)
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := j.fs.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		_ = j.fs.Remove(tmp)
		return fmt.Errorf("journal: commit snapshot: %w", err)
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	// Every journaled record is captured in the snapshot now; the log
	// restarts empty.
	if err := j.f.Truncate(int64(len(walMagic))); err != nil {
		// Old records replaying over the new snapshot is harmless
		// (replay is idempotent), so an un-truncated log is degraded,
		// not fatal.
		j.m.snapshots.Inc()
		j.snapshot = append([]byte(nil), blob...)
		return fmt.Errorf("journal: truncate log after snapshot: %w", err)
	}
	j.size = int64(len(walMagic))
	if j.policy != FsyncNone {
		if err := j.f.Sync(); err != nil {
			j.failLocked(fmt.Errorf("journal: fsync after truncate: %w", err))
			return j.err
		}
		j.syncedSeq = j.writeSeq
	}
	j.snapshot = append([]byte(nil), blob...)
	j.m.snapshots.Inc()
	return nil
}

// Size returns the log's current size in bytes (header included).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// syncLoop is the FsyncInterval background syncer.
func (j *Journal) syncLoop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = j.Sync()
		}
	}
}

// Close flushes, syncs (unless poisoned) and closes the journal.
func (j *Journal) Close() error {
	j.stopInterval()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	var err error
	if j.err == nil && j.syncedSeq < j.writeSeq && j.policy != FsyncNone {
		serr := j.f.Sync()
		if serr != nil {
			err = serr
		} else {
			j.m.fsyncs.Inc()
		}
	}
	j.closed = true
	f := j.f
	j.syncWait.Broadcast()
	j.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a process crash for the fault harness: file handles
// are dropped with no flush or sync, and every later operation fails.
// State already handed to the OS survives (as it would across a real
// process kill); state lost in a torn write does not.
func (j *Journal) Crash() {
	j.stopInterval()
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		_ = j.f.Close()
	}
	j.failLocked(errors.New("journal: crashed"))
	j.mu.Unlock()
}

// stopInterval stops the background syncer, once.
func (j *Journal) stopInterval() {
	if j.stopSyn == nil {
		return
	}
	j.stopOnce.Do(func() {
		close(j.stopSyn)
		<-j.doneSyn
	})
}
