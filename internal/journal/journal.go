package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corun/internal/fault"
)

// The journal's failpoint sites (internal/fault). SiteAppend is
// checked at the top of Append before anything is written, so an
// injected error there is safe to retry with a fresh Append;
// SiteFsync is checked in place of the fsync syscall, after the
// frames reached the log, so its failures surface as *SyncError and
// must be retried with Sync; SiteSnapshot fails a compaction cycle;
// SitePrealloc is checked in place of the preallocating syscall, whose
// failure only means the log runs unpreallocated until the next chunk.
const (
	SiteAppend   = "journal/append"
	SiteFsync    = "journal/fsync"
	SiteSnapshot = "journal/snapshot"
	SitePrealloc = "journal/prealloc"
)

// preallocChunk is how far ahead of the write offset the log file is
// preallocated (sync_linux.go): on the first append after Open or a
// compaction, and again whenever an append would cross the reserved
// end. At twice the default SnapshotBytes a steady-state compaction
// cycle reserves once and never extends mid-way.
const preallocChunk = 8 << 20

// FsyncPolicy selects when appends are forced to stable storage.
type FsyncPolicy string

// The fsync policies. Always makes every Append block until its
// records are fsynced (group commit shares the syscall across
// concurrent appenders); Never leaves flushing to the OS — a process
// crash loses nothing, a machine crash loses what the kernel had not
// written back.
const (
	FsyncAlways FsyncPolicy = "always"
	FsyncNever  FsyncPolicy = "never"
)

// ParseFsyncPolicy normalizes a policy name; empty means FsyncAlways.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch p := FsyncPolicy(strings.ToLower(strings.TrimSpace(s))); p {
	case "":
		return FsyncAlways, nil
	case FsyncAlways, FsyncNever:
		return p, nil
	default:
		return "", fmt.Errorf("journal: unknown fsync policy %q (valid: %s | %s)", s, FsyncAlways, FsyncNever)
	}
}

// Observer receives journal events for instrumentation. All fields
// are optional; callbacks run on the appending goroutine and must be
// cheap and non-blocking.
type Observer struct {
	// Append reports one Append call: records written, framed bytes,
	// and the call's latency (including any group-commit fsync wait).
	Append func(records, bytes int, latency time.Duration)
	// Fsync reports one commit syscall on the log and how long it took.
	Fsync func(took time.Duration)
	// SyncWait reports how long a commit waited for the one ahead of it:
	// the time an appender that needs durability spent queued behind
	// another appender's flush and fsync.
	SyncWait func(waited time.Duration)
	// PreallocFallback reports a refused preallocation (no fallocate on
	// this filesystem, no space, SitePrealloc): the log runs unreserved
	// up to the next chunk boundary, exactly as durable, each commit
	// dearer. It is never an append error.
	PreallocFallback func(error)
	// Snapshot reports one snapshot-plus-compaction cycle.
	Snapshot func()
	// SnapshotError reports a failed threshold-triggered compaction.
	// Compaction is maintenance — the appended records are already
	// governed by the fsync policy — so Append reports the failure
	// here instead of returning it, and the next append past the
	// threshold retries.
	SnapshotError func(error)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; it is created if missing. The journal
	// owns Dir/wal.log and Dir/snapshot.json.
	Dir string

	// Fsync is the durability policy; default FsyncAlways.
	Fsync FsyncPolicy

	// SnapshotBytes is the log size that triggers snapshot-plus-
	// compaction; default 4 MiB, negative disables compaction.
	SnapshotBytes int64

	// Observer hooks instrumentation into appends and fsyncs.
	Observer Observer

	// Faults is the failpoint registry checked at the journal's
	// injection sites (SiteAppend, SiteFsync, SiteSnapshot,
	// SitePrealloc); nil uses fault.Default, which is free while
	// disarmed.
	Faults *fault.Registry
}

// RecoverStats reports what Open found and repaired.
type RecoverStats struct {
	// SnapshotLoaded reports whether a snapshot file seeded the state.
	SnapshotLoaded bool
	// RecordsReplayed counts log records applied on top of the
	// snapshot (records already covered by the snapshot are skipped).
	RecordsReplayed int
	// TruncatedTailBytes is the size of the torn or corrupt log
	// suffix that recovery cut off, zeros around it not counted; 0 for
	// a clean log.
	TruncatedTailBytes int64
	// PreallocatedTailBytes is the size of the zero tail recovery
	// trimmed: preallocation a process that died without Close left
	// behind. 0 after any clean shutdown.
	PreallocatedTailBytes int64
	// Jobs is the number of jobs in the recovered state.
	Jobs int
	// SlowPathRecords counts the payloads — replayed or skipped log
	// records, and the snapshot document as one — that the schema
	// decoder declined and encoding/json decoded instead. 0 on a
	// journal this version wrote with plain-ASCII strings.
	SlowPathRecords int
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// SyncError reports a durability failure after an append's frames
// reached the log: the records are written (and applied to the
// mirror) but not yet known stable. The caller must re-drive
// durability with Sync rather than re-append — a second Append would
// duplicate the records.
type SyncError struct{ Err error }

// Error implements error.
func (e *SyncError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *SyncError) Unwrap() error { return e.Err }

const (
	logName  = "wal.log"
	snapName = "snapshot.json"
)

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	opts Options
	dir  string

	mu       sync.Mutex // writer state: buffer, seq, mirror
	f        *os.File
	bw       *bufio.Writer
	seq      uint64 // last assigned sequence number
	logBytes int64  // log size including still-buffered bytes
	allocEnd int64  // end of the chunk last reserved; 0 = none since Open or a compaction
	state    *State // replay mirror, source of snapshots
	encBuf   []byte // frame-encoding scratch, reused across Appends
	closed   bool

	syncMu  sync.Mutex    // serializes fsync and compaction
	durable atomic.Uint64 // last seq known flushed and fsynced
}

// Open recovers the journal in opts.Dir — loading the snapshot if
// present, replaying the log tail, and cutting the file back to its
// last whole frame (dropping a torn or corrupt final record, or the
// zero tail a killed process's preallocation left) — and returns the
// open journal, the recovered state (an independent copy), and
// recovery statistics. It reserves nothing: the first Append does.
func Open(opts Options) (*Journal, *State, RecoverStats, error) {
	var stats RecoverStats
	if opts.Dir == "" {
		return nil, nil, stats, errors.New("journal: no directory")
	}
	if opts.Fsync == "" {
		opts.Fsync = FsyncAlways
	}
	if _, err := ParseFsyncPolicy(string(opts.Fsync)); err != nil {
		return nil, nil, stats, err
	}
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = 4 << 20
	}
	if opts.Faults == nil {
		opts.Faults = fault.Default
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}

	st := NewState()
	var lastSeq uint64
	intern := make(map[string]string)
	snapPath := filepath.Join(opts.Dir, snapName)
	if b, err := os.ReadFile(snapPath); err == nil {
		// A corrupt snapshot is not recoverable by truncation — it is
		// the compacted history — so unlike a torn log tail it is
		// fatal.
		var sf snapshotFile
		if !fastSnapshot(b, intern, &sf) {
			if err := json.Unmarshal(b, &sf); err != nil {
				return nil, nil, stats, fmt.Errorf("journal: corrupt snapshot %s: %w", snapPath, err)
			}
			stats.SlowPathRecords++
		}
		if sf.Version != snapshotVersion {
			return nil, nil, stats, fmt.Errorf("journal: corrupt snapshot %s: version %d, this build reads %d",
				snapPath, sf.Version, snapshotVersion)
		}
		if sf.State != nil {
			st = sf.State
			st.reindex()
		}
		lastSeq = sf.LastSeq
		stats.SnapshotLoaded = true
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(opts.Dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}
	data, err := readSized(f)
	if err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("journal: reading log: %w", err)
	}
	// Zeros at the end of the file are preallocation the writer never
	// reached (a frame ends in its payload's closing brace, never in a
	// zero), so the scan stops where they start.
	content := len(data) - zeroSuffix(data)
	off := 0
	for off < content {
		r, n, slow, err := decodeFrame(data[off:content], intern)
		if err != nil {
			// Torn or corrupt tail: every frame past this point is
			// unframed noise, so the log is cut here and carries on
			// from the last good record.
			break
		}
		if slow {
			stats.SlowPathRecords++
		}
		if r.Seq > lastSeq {
			if err := st.Apply(r); err != nil {
				f.Close()
				return nil, nil, stats, err
			}
			lastSeq = r.Seq
			stats.RecordsReplayed++
		}
		off += n
	}
	if off < len(data) {
		stats.TruncatedTailBytes = tornBytes(data[off:content])
		stats.PreallocatedTailBytes = int64(len(data)-off) - stats.TruncatedTailBytes
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("journal: truncating log tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}
	stats.Jobs = len(st.Jobs)

	j := &Journal{
		opts:     opts,
		dir:      opts.Dir,
		f:        f,
		bw:       bufio.NewWriter(f),
		seq:      lastSeq,
		logBytes: int64(off),
		state:    st,
	}
	j.durable.Store(lastSeq)
	return j, st.Clone(), stats, nil
}

// tornBytes sizes the damage in a log tail that did not decode, its
// trailing zeros already set aside. Zeros under a zero length field —
// where the writer stopped cleanly — are preallocation as well, up to
// whatever was scribbled past them.
func tornBytes(tail []byte) int64 {
	if len(tail) >= 4 && binary.LittleEndian.Uint32(tail) == 0 {
		tail = bytes.TrimLeft(tail, "\x00")
	}
	return int64(len(tail))
}

// readSized reads f to its end with one allocation of its stat size:
// the journal owns the file, so nobody appends to it meanwhile.
func readSized(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// snapshotVersion is the only snapshot document format this build
// writes or reads.
const snapshotVersion = 1

// snapshotFile is the on-disk snapshot document.
type snapshotFile struct {
	Version int    `json:"version"`
	LastSeq uint64 `json:"last_seq"`
	State   *State `json:"state"`
}

// Append journals the records as one group: sequence numbers are
// assigned, all frames are written together, and — under FsyncAlways
// — the call blocks until they are on stable storage. Concurrent
// Appends waiting on durability share one fsync (group commit).
// Either every record in the call is written or none is.
//
// Errors come in two classes: a *SyncError means the frames reached
// the log but durability failed (retry with Sync); any other error
// means nothing was written (retry with Append, if at all).
func (j *Journal) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := j.opts.Faults.Hit(SiteAppend); err != nil {
		return err
	}
	start := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	// Encode every frame before writing any, so a bad record cannot
	// leave a partial batch in the log. The scratch buffer lives on the
	// journal and is reused across Appends — encoding is under j.mu, so
	// no two Appends can hold it at once.
	startSeq := j.seq
	buf := j.encBuf[:0]
	var err error
	for i := range recs {
		j.seq++
		recs[i].Seq = j.seq
		buf, err = AppendRecord(buf, recs[i])
		if err != nil {
			j.seq = startSeq
			j.encBuf = buf
			j.mu.Unlock()
			return err
		}
	}
	j.encBuf = buf
	var perr error
	if j.logBytes+int64(len(buf)) > j.allocEnd {
		// Refused or not, the next attempt is a chunk (or a compaction)
		// away: a filesystem without fallocate costs one failed syscall
		// per chunk, not one per append.
		if perr = j.opts.Faults.Hit(SitePrealloc); perr == nil {
			perr = preallocate(j.f, j.logBytes, preallocChunk)
		}
		j.allocEnd = j.logBytes + preallocChunk
	}
	if _, err := j.bw.Write(buf); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: write: %w", err)
	}
	j.logBytes += int64(len(buf))
	for i := range recs {
		// The mirror only sees records that passed Validate in
		// AppendRecord, so Apply cannot fail here.
		_ = j.state.Apply(recs[i])
	}
	target := j.seq
	needSnap := j.opts.SnapshotBytes > 0 && j.logBytes >= j.opts.SnapshotBytes
	j.mu.Unlock()

	if obs := j.opts.Observer.PreallocFallback; perr != nil && obs != nil {
		obs(perr)
	}
	if j.opts.Fsync == FsyncAlways {
		err = j.syncTo(target)
	}
	if err == nil && needSnap {
		// Compaction failure does not fail the append: the records are
		// already as durable as the fsync policy promises, and a caller
		// retrying an "append error" would duplicate them. The failure
		// is reported, and the next append past the threshold retries.
		if cerr := j.Compact(); cerr != nil {
			if obs := j.opts.Observer.SnapshotError; obs != nil {
				obs(cerr)
			}
		}
	}
	if obs := j.opts.Observer.Append; obs != nil {
		obs(len(recs), len(buf), time.Since(start))
	}
	return err
}

// Sync flushes and fsyncs everything appended so far, regardless of
// the fsync policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	target := j.seq
	j.mu.Unlock()
	return j.syncTo(target)
}

// DurableSeq returns the highest sequence number known flushed and
// fsynced — the durability watermark an acknowledged write can be
// checked against. Safe for concurrent use.
func (j *Journal) DurableSeq() uint64 { return j.durable.Load() }

// LastSeq returns the highest sequence number assigned so far
// (appended, though not necessarily durable yet).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// syncTo makes every record up to target durable. The double-checked
// durable watermark is the group commit: an appender that arrives
// while another's fsync is in flight blocks on syncMu, and by the
// time it gets the lock that fsync usually covered its records too,
// so it returns without a second syscall.
func (j *Journal) syncTo(target uint64) error {
	if j.durable.Load() >= target {
		return nil
	}
	queued := time.Now()
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if obs := j.opts.Observer.SyncWait; obs != nil {
		obs(time.Since(queued))
	}
	if j.durable.Load() >= target {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	err := j.bw.Flush()
	flushed := j.seq
	f := j.f
	j.mu.Unlock()
	if err != nil {
		return &SyncError{Err: fmt.Errorf("journal: flush: %w", err)}
	}
	if err := j.opts.Faults.Hit(SiteFsync); err != nil {
		return &SyncError{Err: err}
	}
	began := time.Now()
	if err := datasync(f); err != nil {
		return &SyncError{Err: fmt.Errorf("journal: fsync: %w", err)}
	}
	j.durable.Store(flushed)
	if obs := j.opts.Observer.Fsync; obs != nil {
		obs(time.Since(began))
	}
	return nil
}

// Compact writes an atomic snapshot of the materialized state (write
// to a temp file, fsync, rename, fsync the directory) and truncates
// the log. A crash between the rename and the truncate is safe: the
// leftover log records carry sequence numbers at or below the
// snapshot's LastSeq, and recovery skips them.
func (j *Journal) Compact() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	if err := j.opts.Faults.Hit(SiteSnapshot); err != nil {
		return err
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	b, err := json.Marshal(&snapshotFile{Version: snapshotVersion, LastSeq: j.seq, State: j.state})
	if err != nil {
		return fmt.Errorf("journal: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(j.dir, snapName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := tf.Write(b); err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating compacted log: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.logBytes, j.allocEnd = 0, 0
	j.durable.Store(j.seq)
	if obs := j.opts.Observer.Snapshot; obs != nil {
		obs()
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: syncing dir: %w", err)
	}
	return nil
}

// Close flushes the log, trims what preallocation is left past its
// last frame — so a closed log is exactly its records, and the next
// Open reads no zero tail — fsyncs, and closes it; it is idempotent,
// and further appends return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	err := j.bw.Flush()
	size, reserved := j.logBytes, j.allocEnd != 0
	j.mu.Unlock()
	if err == nil && reserved {
		if err = j.f.Truncate(size); err != nil {
			err = fmt.Errorf("journal: trimming preallocation: %w", err)
		}
	}
	if serr := j.f.Sync(); err == nil {
		err = serr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
