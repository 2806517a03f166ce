package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corun/internal/fault"
)

func openT(t *testing.T, opts Options) (*Journal, *State, RecoverStats) {
	t.Helper()
	j, st, stats, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, st, stats
}

func TestOpenAppendRecover(t *testing.T) {
	dir := t.TempDir()
	j, st, stats := openT(t, Options{Dir: dir})
	if stats.SnapshotLoaded || stats.RecordsReplayed != 0 || stats.Jobs != 0 {
		t.Fatalf("fresh dir stats %+v", stats)
	}
	if st.CapWatts != nil || len(st.Jobs) != 0 {
		t.Fatalf("fresh state %+v", st)
	}

	if err := j.Append(); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if err := j.Append(jobRecord("job-000000"), capRecord(18)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypePolicyChanged, Policy: "hcs"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(capRecord(20)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	_, st2, stats2 := openT(t, Options{Dir: dir})
	if stats2.RecordsReplayed != 3 || stats2.TruncatedTailBytes != 0 || stats2.Jobs != 1 {
		t.Fatalf("stats %+v", stats2)
	}
	if st2.CapWatts == nil || *st2.CapWatts != 18 || st2.Policy != "hcs" {
		t.Fatalf("state %+v", st2)
	}
	if _, ok := st2.Job("job-000000"); !ok {
		t.Fatal("job lost")
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		// The crash artifacts recovery must absorb: a frame cut mid-
		// write, and a complete frame whose bytes rotted.
		"torn":    func(b []byte) []byte { return b[:len(b)-3] },
		"flipped": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"garbage": func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _, _ := openT(t, Options{Dir: dir})
			for i := 0; i < 5; i++ {
				if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(dir, logName)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, st, stats := openT(t, Options{Dir: dir})
			if stats.TruncatedTailBytes == 0 {
				t.Fatal("no tail truncated")
			}
			want := 5
			if name != "garbage" {
				want = 4 // the final record itself was the casualty
			}
			if len(st.Jobs) != want {
				t.Fatalf("recovered %d jobs, want %d", len(st.Jobs), want)
			}
			// The journal keeps working after the repair, and the next
			// recovery is clean.
			if err := j2.Append(jobRecord("job-000099")); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			_, st3, stats3 := openT(t, Options{Dir: dir})
			if stats3.TruncatedTailBytes != 0 || len(st3.Jobs) != want+1 {
				t.Fatalf("post-repair recovery: %+v, %d jobs", stats3, len(st3.Jobs))
			}
		})
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	var snaps atomic.Int64
	opts := Options{
		Dir:           dir,
		Fsync:         FsyncNever,
		SnapshotBytes: 2048,
		Observer:      Observer{Snapshot: func() { snaps.Add(1) }},
	}
	j, _, _ := openT(t, opts)
	const n = 200
	for i := 0; i < n; i++ {
		if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i)), capRecord(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if snaps.Load() == 0 {
		t.Fatal("no compaction despite exceeding the threshold")
	}
	if fi, err := os.Stat(filepath.Join(dir, snapName)); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v", err)
	}
	// Judged after Close: an open log is up to one preallocated chunk
	// larger than its records.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() > 4096 {
		t.Fatalf("log not compacted: %v bytes", fi.Size())
	}

	// Recovery = snapshot + tail; everything must be there.
	_, st, stats := openT(t, opts)
	if !stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded")
	}
	if len(st.Jobs) != n {
		t.Fatalf("recovered %d jobs, want %d", len(st.Jobs), n)
	}
	if st.CapWatts == nil || *st.CapWatts != n-1 {
		t.Fatalf("cap %+v", st.CapWatts)
	}
	// Only the records after the last snapshot replay from the log.
	if stats.RecordsReplayed >= 2*n {
		t.Errorf("replayed %d records — compaction did not shorten the log", stats.RecordsReplayed)
	}
}

func TestSnapshotLeftoverLogRecordsSkipped(t *testing.T) {
	// A crash between snapshot rename and log truncate leaves records
	// the snapshot already covers; replay must skip them by sequence
	// number, not double-apply.
	dir := t.TempDir()
	j, _, _ := openT(t, Options{Dir: dir, SnapshotBytes: -1})
	if err := j.Append(jobRecord("job-000000"), capRecord(10)); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	if err := j.Append(capRecord(11)); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the un-truncated log: pre-snapshot records still in
	// front of the tail.
	pre, err := AppendRecord(nil, Record{Seq: 1, Type: TypeJobSubmitted, Job: &JobRecord{ID: "job-000000", State: "stale"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, append(pre, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, st, stats := openT(t, Options{Dir: dir})
	if stats.RecordsReplayed != 1 {
		t.Fatalf("replayed %d, want just the tail", stats.RecordsReplayed)
	}
	if jr, _ := st.Job("job-000000"); jr.State == "stale" {
		t.Fatal("pre-snapshot record re-applied over the snapshot")
	}
	if st.CapWatts == nil || *st.CapWatts != 11 {
		t.Fatalf("cap %+v", st.CapWatts)
	}
}

func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var fsyncs, appends atomic.Int64
	j, _, _ := openT(t, Options{
		Dir:   dir,
		Fsync: FsyncAlways,
		Observer: Observer{
			Fsync:  func(time.Duration) { fsyncs.Add(1) },
			Append: func(records, bytes int, _ time.Duration) { appends.Add(int64(records)) },
		},
	})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(jobRecord(fmt.Sprintf("job-%03d%03d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := appends.Load(); got != writers*per {
		t.Fatalf("observed %d appends, want %d", got, writers*per)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record an Append acknowledged must recover.
	_, st, _ := openT(t, Options{Dir: dir})
	if len(st.Jobs) != writers*per {
		t.Fatalf("recovered %d jobs, want %d", len(st.Jobs), writers*per)
	}
	t.Logf("group commit: %d records, %d fsyncs", writers*per, fsyncs.Load())
}

// TestFsyncIntervalAndNever: under never, Close flushes and fsyncs
// whatever the policy left behind; a journal asked for interval — no
// mode of this package — refuses to open, naming the two there are.
func TestFsyncIntervalAndNever(t *testing.T) {
	t.Run("interval", func(t *testing.T) {
		_, _, _, err := Open(Options{Dir: t.TempDir(), Fsync: "interval"})
		if err == nil || !strings.Contains(err.Error(), "always") || !strings.Contains(err.Error(), "never") {
			t.Fatalf("Open with fsync interval = %v, want an error naming always and never", err)
		}
	})
	t.Run("never", func(t *testing.T) {
		dir := t.TempDir()
		j, _, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever})
		for i := 0; i < 10; i++ {
			if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, st, _ := openT(t, Options{Dir: dir})
		if len(st.Jobs) != 10 {
			t.Fatalf("recovered %d jobs", len(st.Jobs))
		}
	})
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"":         FsyncAlways,
		"always":   FsyncAlways,
		" ALWAYS ": FsyncAlways,
		"Never\t":  FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %q, %v", in, got, err)
		}
	}
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Errorf("fsync policy %q accepted", bad)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, _, _, err := Open(Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, _, _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("bad fsync policy accepted")
	}
}

func TestAtomicBatch(t *testing.T) {
	// A batch with an invalid record must write nothing.
	dir := t.TempDir()
	j, _, _ := openT(t, Options{Dir: dir})
	if err := j.Append(capRecord(15), Record{Type: "bogus"}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if err := j.Append(capRecord(16)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, stats := openT(t, Options{Dir: dir})
	if stats.RecordsReplayed != 1 || st.CapWatts == nil || *st.CapWatts != 16 {
		t.Fatalf("stats %+v cap %+v", stats, st.CapWatts)
	}
}

// TestFailedCommitDiscards pins the failed-commit contract with the
// fault that makes it matter: a journal/fsync drop fails the fsync and
// cuts the log back to its durable offset, as a kernel that dropped the
// dirty pages would. Every Append with records past that offset — the
// one whose fsync failed and the one queued behind it — returns
// ErrDiscarded, nothing is acked over the lost bytes, the sequence
// numbers are reissued, and a fresh Append of the same records is the
// retry. Recovery then finds exactly what was acked.
func TestFailedCommitDiscards(t *testing.T) {
	dir := t.TempDir()
	faults := fault.NewRegistry()
	j, _, _ := openT(t, Options{Dir: dir, SnapshotBytes: -1, Faults: faults})
	for i := 0; i < 3; i++ {
		if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := faults.ArmSpec("journal/fsync=drop(times=1)"); err != nil {
		t.Fatal(err)
	}
	// Hold the commit lock so both appends write their frames and queue
	// behind it; the first to commit fails for both.
	j.syncMu.Lock()
	errs := make(chan error, 2)
	for _, id := range []string{"job-000003", "job-000004"} {
		go func() { errs <- j.Append(jobRecord(id)) }()
	}
	for j.LastSeq() != 5 {
		time.Sleep(time.Millisecond)
	}
	j.syncMu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrDiscarded) {
			t.Fatalf("append over a dropped fsync = %v, want ErrDiscarded", err)
		}
	}
	if d, l := j.DurableSeq(), j.LastSeq(); d != 3 || l != 3 {
		t.Fatalf("after the discard durable %d, last %d; want both 3", d, l)
	}
	if err := j.Append(jobRecord("job-000004")); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, stats := openT(t, Options{Dir: dir})
	if stats.RecordsReplayed != 4 || stats.TruncatedTailBytes != 0 || len(st.Jobs) != 4 {
		t.Fatalf("recovered %d jobs, stats %+v; want the 4 acked", len(st.Jobs), stats)
	}
	if _, ok := st.Job("job-000003"); ok {
		t.Error("a discarded record was recovered")
	}
}

// TestFailedSyncDiscardsUnsynced: under FsyncNever the appends return
// at once, and a Sync that fails discards everything since the last
// one — the mirror too, so a later compaction cannot resurrect it.
func TestFailedSyncDiscardsUnsynced(t *testing.T) {
	dir := t.TempDir()
	faults := fault.NewRegistry()
	j, _, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: -1, Faults: faults})
	for i := 0; i < 5; i++ {
		if i == 2 {
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := faults.ArmSpec("journal/fsync=error(times=1)"); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); !errors.Is(err, ErrDiscarded) || !fault.IsInjected(err) {
		t.Fatalf("failed sync = %v, want ErrDiscarded wrapping the injected fault", err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, _ := openT(t, Options{Dir: dir})
	if len(st.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want the 2 synced before the failure", len(st.Jobs))
	}
}
