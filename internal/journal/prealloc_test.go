package journal

// Tests for the preallocated log: what a crash at any byte leaves and
// how Open reads it, what a refused preallocation costs (nothing but
// speed), and that a closed log is byte for byte the log an
// unpreallocated writer leaves.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"corun/internal/fault"
)

// closedLog journals recs (one Append each, compacting after the first
// compactAfter of them when that is > 0), closes the journal and
// returns the directory and its log's bytes.
func closedLog(t *testing.T, recs []Record, compactAfter int) (dir string, log []byte) {
	t.Helper()
	dir = t.TempDir()
	j, _, _, err := Open(Options{Dir: dir, SnapshotBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		if i+1 == compactAfter {
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, log
}

// frameEnds returns the end offset of every frame in log, which must
// be whole frames and nothing else.
func frameEnds(t *testing.T, log []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(log); {
		_, n, err := DecodeRecord(log[off:])
		if err != nil {
			t.Fatalf("log offset %d: %v", off, err)
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// writeCrashedLog leaves in dir what a process killed mid-write leaves:
// the log's bytes up to cut, then the untouched rest of the
// preallocated chunk.
func writeCrashedLog(t *testing.T, dir string, log []byte, cut int) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(log[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(preallocChunk); err != nil { // a hole reads as the zeros fallocate leaves
		t.Fatal(err)
	}
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCrashPointsInPreallocatedLog cuts the log at every byte of its
// last two frames, zero-fills to the chunk size, and requires of Open:
// exactly the whole frames before the cut, only the partial frame's
// bytes counted as torn, the file trimmed to its last whole frame, and
// a journal that appends, closes and reopens from there. Once on a
// plain log, once on one that was compacted (snapshot present, the
// log started over), where the sweep starts at an all-zero file.
func TestCrashPointsInPreallocatedLog(t *testing.T) {
	recs := []Record{
		jobRecord("job-000000"), capRecord(18), jobRecord("job-000001"),
		{Type: TypePolicyChanged, Policy: "hcs"}, capRecord(12.5),
	}
	for _, tc := range []struct {
		name         string
		compactAfter int
	}{{"log only", 0}, {"after compaction", len(recs) - 2}} {
		t.Run(tc.name, func(t *testing.T) {
			src, log := closedLog(t, recs, tc.compactAfter)
			ends := frameEnds(t, log)
			if want := len(recs) - tc.compactAfter; len(ends) != want {
				t.Fatalf("%d frames in the log, want %d", len(ends), want)
			}
			var snap []byte
			if tc.compactAfter > 0 {
				var err error
				if snap, err = os.ReadFile(filepath.Join(src, snapName)); err != nil {
					t.Fatal(err)
				}
			}
			first := 0
			if len(ends) > 2 {
				first = ends[len(ends)-3]
			}
			for cut := first; cut <= len(log); cut++ {
				whole, start := 0, 0 // frames wholly before the cut, and where they end
				for _, e := range ends {
					if e <= cut {
						whole, start = whole+1, e
					}
				}
				torn := int64(len(bytes.TrimRight(log[start:cut], "\x00")))
				wantState := NewState()
				for _, r := range recs[:tc.compactAfter+whole] {
					if err := wantState.Apply(r); err != nil {
						t.Fatal(err)
					}
				}

				dir := t.TempDir()
				if snap != nil {
					if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				writeCrashedLog(t, dir, log, cut)
				j, st, stats, err := Open(Options{Dir: dir, SnapshotBytes: -1})
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				want := RecoverStats{
					SnapshotLoaded: snap != nil, RecordsReplayed: whole, Jobs: len(wantState.Jobs),
					TruncatedTailBytes: torn, PreallocatedTailBytes: preallocChunk - int64(start) - torn,
				}
				if stats != want {
					t.Fatalf("cut %d: stats %+v, want %+v", cut, stats, want)
				}
				if !reflect.DeepEqual(st, wantState) {
					t.Fatalf("cut %d: recovered\n got %s\nwant %s", cut, dump(st), dump(wantState))
				}
				if got := logSize(t, dir); got != int64(start) {
					t.Fatalf("cut %d: log is %d bytes after Open, want it trimmed to %d", cut, got, start)
				}

				// The repaired journal carries on from the last whole frame.
				if err := j.Append(jobRecord("job-000099")); err != nil {
					t.Fatalf("cut %d: append after repair: %v", cut, err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				if err := wantState.Apply(jobRecord("job-000099")); err != nil {
					t.Fatal(err)
				}
				j2, st2, stats2, err := Open(Options{Dir: dir, SnapshotBytes: -1})
				if err != nil {
					t.Fatalf("cut %d: reopen: %v", cut, err)
				}
				j2.Close()
				if stats2.RecordsReplayed != whole+1 || stats2.TruncatedTailBytes != 0 || stats2.PreallocatedTailBytes != 0 {
					t.Fatalf("cut %d: reopen stats %+v", cut, stats2)
				}
				// Seq is the journal's to assign; the states agree on the rest.
				if !reflect.DeepEqual(st2, wantState) {
					t.Fatalf("cut %d: reopened\n got %s\nwant %s", cut, dump(st2), dump(wantState))
				}
			}
		})
	}
}

// TestPreallocatedWhileOpenTrimmedOnClose: an appended-to log is one
// chunk ahead of its records while open (on Linux, where there is a
// fallocate to call), is exactly its records once closed, and a
// journal that is opened and closed without an append touches
// neither the reservation nor the file.
func TestPreallocatedWhileOpenTrimmedOnClose(t *testing.T) {
	dir := t.TempDir()
	var fallbacks atomic.Int64
	opts := Options{Dir: dir, SnapshotBytes: -1, Observer: Observer{PreallocFallback: func(error) { fallbacks.Add(1) }}}
	j, _, _ := openT(t, opts)
	if got := logSize(t, dir); got != 0 {
		t.Fatalf("Open preallocated: log is %d bytes before the first append", got)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	logical := j.logBytes
	if runtime.GOOS == "linux" {
		if got := logSize(t, dir); got != preallocChunk {
			t.Errorf("open log is %d bytes, want one chunk of %d", got, preallocChunk)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, dir); got != logical {
		t.Errorf("closed log is %d bytes, want its %d bytes of records", got, logical)
	}
	if fallbacks.Load() != 0 {
		t.Errorf("%d preallocation fallbacks on a filesystem that has fallocate", fallbacks.Load())
	}

	j2, _, stats := openT(t, opts)
	if stats.RecordsReplayed != 3 || stats.TruncatedTailBytes != 0 || stats.PreallocatedTailBytes != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if j2.allocEnd != 0 {
		t.Errorf("Open reserved up to %d", j2.allocEnd)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, dir); got != logical {
		t.Errorf("log is %d bytes after an idle open and close, want %d", got, logical)
	}
}

// TestPreallocationCrossesChunk: a log that outgrows its chunk
// reserves the next one and loses nothing at the seam.
func TestPreallocationCrossesChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("writes more than one 8 MiB chunk")
	}
	dir := t.TempDir()
	j, _, _ := openT(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: -1})
	big := jobRecord("job-big")
	big.Job.Label = string(bytes.Repeat([]byte("x"), 256<<10))
	n := 0
	for ; j.logBytes <= preallocChunk; n++ {
		big.Job.ID = fmt.Sprintf("job-%06d", n)
		if err := j.Append(big); err != nil {
			t.Fatal(err)
		}
	}
	if j.allocEnd <= preallocChunk {
		t.Fatalf("reserved end %d after writing %d bytes", j.allocEnd, j.logBytes)
	}
	logical := j.logBytes
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, dir); got != logical {
		t.Errorf("closed log is %d bytes, want %d", got, logical)
	}
	_, st, stats := openT(t, Options{Dir: dir})
	if len(st.Jobs) != n || stats.TruncatedTailBytes != 0 || stats.PreallocatedTailBytes != 0 {
		t.Fatalf("recovered %d of %d jobs, stats %+v", len(st.Jobs), n, stats)
	}
}

// TestPreallocFailureFallsBack: a refused preallocation (here the
// journal/prealloc failpoint, standing in for EOPNOTSUPP or ENOSPC) is
// counted and never surfaces: the journal works unreserved, the log
// growing with each append, and recovers like any other.
func TestPreallocFailureFallsBack(t *testing.T) {
	faults := fault.NewRegistry()
	if err := faults.ArmSpec("journal/prealloc=error(every=1)"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var fallbacks atomic.Int64
	j, _, _ := openT(t, Options{
		Dir: dir, SnapshotBytes: -1, Faults: faults,
		Observer: Observer{PreallocFallback: func(error) { fallbacks.Add(1) }},
	})
	for i := 0; i < 20; i++ {
		if err := j.Append(jobRecord(fmt.Sprintf("job-%06d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if got := logSize(t, dir); got != j.logBytes {
			t.Fatalf("after append %d the log is %d bytes, want an unreserved %d", i, got, j.logBytes)
		}
	}
	// One refusal for the whole chunk, not one per append.
	if got := fallbacks.Load(); got != 1 {
		t.Errorf("%d fallbacks reported, want 1", got)
	}
	if got := j.DurableSeq(); got != 20 {
		t.Errorf("durable through %d, want 20", got)
	}
	// A compaction starts the log over; the next append asks again.
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(jobRecord("job-000020")); err != nil {
		t.Fatal(err)
	}
	if got := fallbacks.Load(); got != 2 {
		t.Errorf("%d fallbacks after a compaction, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, stats := openT(t, Options{Dir: dir})
	if len(st.Jobs) != 21 || stats.TruncatedTailBytes != 0 || stats.PreallocatedTailBytes != 0 {
		t.Fatalf("recovered %d jobs, stats %+v", len(st.Jobs), stats)
	}
}

// goldenRecords is the append sequence behind testdata/closed/wal.log,
// which the commit before preallocation wrote (each element one
// Append, default options).
func goldenRecords() [][]Record {
	met := false
	done := func(id string, epoch int, clock float64) Record {
		return Record{Type: TypeJobState, SimClockS: clock, Job: &JobRecord{
			ID: id, Program: "cfd", Scale: 1.25, Label: "nightly", DeadlineS: 90,
			SubmittedAt: jobRecord(id).Job.SubmittedAt, ArrivedSimS: 41.5,
			State: "done", Epoch: epoch, StartedSimS: 50, FinishedSimS: clock, ResponseS: clock - 41.5,
			Device: "GPU", DeadlineMet: &met,
		}}
	}
	return [][]Record{
		{capRecord(15)},
		{{Type: TypePolicyChanged, Policy: "hcs+"}},
		{jobRecord("job-000000")},
		{jobRecord("job-000001")},
		{done("job-000000", 1, 77.25), done("job-000001", 1, 77.25)},
		{capRecord(0)},
		{jobRecord("job-000002")},
		{done("job-000002", 2, 141.0625)},
	}
}

// TestClosedLogGolden: whatever happens to the file while it is open,
// a cleanly closed log is the bytes the previous writer left for the
// same appends — under every fsync policy, and with the preallocation
// refused — so a data dir moves between the two builds either way.
func TestClosedLogGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "closed", logName))
	if err != nil {
		t.Fatal(err)
	}
	refused := fault.NewRegistry()
	if err := refused.ArmSpec("journal/prealloc=error(every=1)"); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"always":  {Fsync: FsyncAlways},
		"never":   {Fsync: FsyncNever},
		"refused": {Faults: refused},
	} {
		opts.Dir = t.TempDir()
		j, _, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, recs := range goldenRecords() {
			if err := j.Append(recs...); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(opts.Dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: closed log is %d bytes and differs from the %d golden ones", name, len(got), len(want))
		}
	}
}
