package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corun/internal/fault"
)

// The journal's failpoint sites (internal/fault). SiteAppend is
// checked at the top of Append before anything is written; SiteFsync
// is checked in place of the fsync syscall, after the frames reached
// the log, so its failures take the failed-commit path (discard) — and
// a fault.KindDrop rule there also cuts the log back to its durable
// offset first, as a kernel that dropped the pages would; either way
// the caller retries with a fresh Append. SiteSnapshot fails a
// compaction cycle; SitePrealloc is checked in place of the
// preallocating syscall, whose failure only means the log runs
// unpreallocated until the next chunk.
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
	// SitePrealloc); nil arms none.
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

// ErrDiscarded is returned by an Append (or Sync) whose records a
// failed commit discarded: they are not in the log, and a fresh Append
// of the same records is the retry.
var ErrDiscarded = errors.New("journal: records discarded by a failed commit")

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
	failed   error // set when a discard could not re-read the log; every later write returns it

	syncMu     sync.Mutex    // serializes fsync, compaction and discard
	durable    atomic.Uint64 // last seq known flushed and fsynced
	durableOff int64         // log offset durable covers; syncMu
	// gen counts discards (written under syncMu and mu). An Append
	// notes it with its sequence numbers; if it has moved by the time
	// the Append's commit is decided, the records were discarded, even
	// if the durable watermark has since passed numbers reissued to
	// other records.
	gen atomic.Uint64
}

// Open recovers the journal in opts.Dir — loading the snapshot if
// present, replaying the log tail, and cutting the file back to its
// last whole frame (dropping a torn or corrupt final record, or the
// zero tail a killed process's preallocation left) — and returns the
// open journal, the recovered state, and recovery statistics. It
// reserves nothing: the first Append does.
//
// The state is the caller's — its Jobs slice and index are not the
// journal's — but its JobRecords are the ones the journal keeps for
// its snapshots: a journaled JobRecord is never modified, so a caller
// that changes a job copies it first.
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
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(opts.Dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{opts: opts, dir: opts.Dir, f: f, bw: bufio.NewWriter(f)}
	if stats, err = j.load(); err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	j.durable.Store(j.seq)
	return j, j.state.share(), stats, nil
}

// load reads the snapshot and the log into the journal — replay
// mirror, sequence number, write offset — cutting the log back to its
// last whole frame. Open runs it on a new journal; a failed commit runs
// it again after cutting the log back to the durable offset, so the
// mirror forgets what the log no longer holds. The caller owns j or
// holds syncMu and mu.
func (j *Journal) load() (RecoverStats, error) {
	var stats RecoverStats
	snapPath := filepath.Join(j.dir, snapName)
	doc, err := os.ReadFile(snapPath)
	hasSnap := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return stats, fmt.Errorf("journal: %w", err)
	}
	f := j.f
	data, err := readSized(f)
	if err != nil {
		return stats, fmt.Errorf("journal: reading log: %w", err)
	}
	// Zeros at the end of the file are preallocation the writer never
	// reached (a frame ends in its payload's closing brace, never in a
	// zero), so the scan stops where they start.
	content := len(data) - zeroSuffix(data)

	// Both files decode at once on every core (decode.go's reader);
	// what is applied below, in order, is what a single pass decodes.
	rd := newReader(doc, data[:content], runtime.GOMAXPROCS(0))
	var sf snapshotFile
	var slow bool
	var snapErr error
	if hasSnap {
		slow, snapErr = rd.decodeSnapshot(&sf)
	}
	pieces := rd.decodeLog()

	st := NewState()
	var lastSeq uint64
	if hasSnap {
		// A corrupt snapshot is not recoverable by truncation — it is
		// the compacted history — so unlike a torn log tail it is
		// fatal.
		if snapErr != nil {
			return stats, fmt.Errorf("journal: corrupt snapshot %s: %w", snapPath, snapErr)
		}
		if slow {
			stats.SlowPathRecords++
		}
		if sf.Version != snapshotVersion {
			return stats, fmt.Errorf("journal: corrupt snapshot %s: version %d, this build reads %d",
				snapPath, sf.Version, snapshotVersion)
		}
		if sf.State != nil {
			st = sf.State
			st.reindex()
		}
		lastSeq = sf.LastSeq
		stats.SnapshotLoaded = true
	}

	off := 0
	for _, p := range pieces {
		stats.SlowPathRecords += p.slow
		for _, r := range p.recs {
			if r.Seq > lastSeq {
				if err := st.Apply(r); err != nil {
					return stats, err
				}
				lastSeq = r.Seq
				stats.RecordsReplayed++
			}
		}
		off = p.end
		if p.end < p.to {
			// Torn or corrupt: every frame past this point is
			// unframed noise, so the log is cut here and carries on
			// from the last good record.
			break
		}
	}
	if off < len(data) {
		stats.TruncatedTailBytes = tornBytes(data[off:content])
		stats.PreallocatedTailBytes = int64(len(data)-off) - stats.TruncatedTailBytes
		if err := f.Truncate(int64(off)); err != nil {
			return stats, fmt.Errorf("journal: truncating log tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return stats, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		return stats, fmt.Errorf("journal: %w", err)
	}
	stats.Jobs = len(st.Jobs)
	j.state, j.seq = st, lastSeq
	j.logBytes, j.durableOff, j.allocEnd = int64(off), int64(off), 0
	j.bw.Reset(f)
	return stats, nil
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

// readSized reads f from its start to its end with one allocation of
// its stat size: the journal owns the file, so nobody appends to it
// meanwhile.
func readSized(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, fi.Size()), data); err != nil {
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
// Either every record in the call is in the log or none is.
//
// The journal keeps each record's Job, not a copy, for its snapshots:
// a journaled JobRecord is never modified, by the caller or anyone it
// hands the record to. A changed job is a new JobRecord in a new
// record.
//
// Any error means the records are not in the log, and the retry is a
// fresh Append. A failed commit (a flush or fsync error) is never
// retried by syncing again: the kernel may have dropped the pages and
// cleared the error, so a second fsync would succeed over bytes that
// are gone. The journal discards everything past its durable offset
// instead, and every Append with records there returns ErrDiscarded.
func (j *Journal) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := j.opts.Faults.Hit(SiteAppend); err != nil {
		return err
	}
	start := time.Now()
	j.mu.Lock()
	if err := j.writable(); err != nil {
		j.mu.Unlock()
		return err
	}
	// Encode every frame before writing any, so a bad record cannot
	// leave a partial batch in the log. The scratch buffer lives on the
	// journal and is reused across Appends — encoding is under j.mu, so
	// no two Appends can hold it at once.
	startSeq := j.seq
	buf := j.encBuf[:0]
	for i := range recs {
		j.seq++
		recs[i].Seq = j.seq
		next, err := AppendRecord(buf, recs[i])
		if err != nil {
			j.seq = startSeq
			j.encBuf = buf
			j.mu.Unlock()
			return err
		}
		buf = next
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
		// Part of the batch may be in the file: the failed-commit path.
		j.mu.Unlock()
		j.syncMu.Lock()
		defer j.syncMu.Unlock()
		return j.discard(fmt.Errorf("journal: write: %w", err))
	}
	j.logBytes += int64(len(buf))
	for i := range recs {
		// The mirror only sees records that passed Validate in
		// AppendRecord, so Apply cannot fail here.
		_ = j.state.Apply(recs[i])
	}
	target, gen := j.seq, j.gen.Load()
	needSnap := j.opts.SnapshotBytes > 0 && j.logBytes >= j.opts.SnapshotBytes
	j.mu.Unlock()

	if obs := j.opts.Observer.PreallocFallback; perr != nil && obs != nil {
		obs(perr)
	}
	var err error
	if j.opts.Fsync == FsyncAlways {
		err = j.syncTo(target, gen)
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
	target, gen := j.seq, j.gen.Load()
	j.mu.Unlock()
	return j.syncTo(target, gen)
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

// syncTo makes every record up to target, appended at discard
// generation gen, durable. The double-checked durable watermark is the
// group commit: an appender that arrives while another's fsync is in
// flight blocks on syncMu, and by the time it gets the lock that fsync
// usually covered its records too, so it returns without a second
// syscall. The watermark is read before gen: a discard that reissued
// sequence numbers the watermark then covers has already moved gen.
func (j *Journal) syncTo(target, gen uint64) error {
	if j.durable.Load() >= target && j.gen.Load() == gen {
		return nil
	}
	queued := time.Now()
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if obs := j.opts.Observer.SyncWait; obs != nil {
		obs(time.Since(queued))
	}
	if j.gen.Load() != gen {
		return ErrDiscarded
	}
	if j.durable.Load() >= target {
		return nil
	}
	j.mu.Lock()
	if err := j.writable(); err != nil {
		j.mu.Unlock()
		return err
	}
	err := j.bw.Flush()
	flushed, end, f := j.seq, j.logBytes, j.f
	j.mu.Unlock()
	if err != nil {
		return j.discard(fmt.Errorf("journal: flush: %w", err))
	}
	if err := j.opts.Faults.Hit(SiteFsync); err != nil {
		if fault.Drops(err) {
			// What a kernel that dropped the dirty pages leaves: the
			// file as of the last successful fsync.
			_ = f.Truncate(j.durableOff)
		}
		return j.discard(err)
	}
	began := time.Now()
	if err := datasync(f); err != nil {
		return j.discard(fmt.Errorf("journal: fsync: %w", err))
	}
	j.durable.Store(flushed)
	j.durableOff = end
	if obs := j.opts.Observer.Fsync; obs != nil {
		obs(time.Since(began))
	}
	return nil
}

// writable reports why nothing can be written (closed, or failed);
// callers hold mu.
func (j *Journal) writable() error {
	if j.closed {
		return ErrClosed
	}
	return j.failed
}

// discard is the failed-commit path, with syncMu held: every byte past
// the durable offset is suspect, so the log is cut back to that offset
// and the mirror, sequence number and write offset are re-read from
// disk, as Open reads them. Bumping gen fails every Append whose
// records were past the offset with ErrDiscarded, including those
// still queued behind syncMu, and their callers append them afresh. A
// journal that cannot re-read its own durable prefix refuses every
// later write.
func (j *Journal) discard(cause error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gen.Add(1)
	err := j.f.Truncate(j.durableOff)
	if err == nil {
		_, err = j.load()
	}
	if err != nil {
		j.failed = fmt.Errorf("journal: unusable after a failed commit (%v): %w", cause, err)
		return j.failed
	}
	return fmt.Errorf("%w: %w", ErrDiscarded, cause)
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
	// One allocation, sized for a done job's 300-400 bytes each: growing
	// from nil would copy the multi-megabyte document a dozen times.
	b, err := appendSnapshot(make([]byte, 0, 512*len(j.state.Jobs)+512),
		&snapshotFile{Version: snapshotVersion, LastSeq: j.seq, State: j.state})
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
	j.logBytes, j.allocEnd, j.durableOff = 0, 0, 0
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
