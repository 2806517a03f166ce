package journal

// Benchmarks for the journal hot paths: the per-append cost under
// each fsync policy (the daemon's submission latency floor), batched
// group appends (the per-epoch transition write), and recovery
// replay (the daemon's restart time). Run via `make bench`.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

func benchJournal(b *testing.B, pol FsyncPolicy) *Journal {
	b.Helper()
	// Compaction off so the benchmark measures appends, not snapshots.
	j, _, _, err := Open(Options{Dir: b.TempDir(), Fsync: pol, SnapshotBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { j.Close() })
	return j
}

func BenchmarkAppend(b *testing.B) {
	for _, pol := range []FsyncPolicy{FsyncNever, FsyncAlways} {
		b.Run(string(pol), func(b *testing.B) {
			j := benchJournal(b, pol)
			rec := jobRecord("job-000000")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendBatch is the epoch-transition shape: one Append call
// carrying a whole batch of state records, amortizing the fsync.
func BenchmarkAppendBatch(b *testing.B) {
	const batch = 16
	j := benchJournal(b, FsyncAlways)
	recs := make([]Record, batch)
	for i := range recs {
		recs[i] = jobRecord(fmt.Sprintf("job-%06d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(recs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendParallel exercises group commit: concurrent
// appenders under FsyncAlways should share fsyncs instead of paying
// one syscall each.
func BenchmarkAppendParallel(b *testing.B) {
	j := benchJournal(b, FsyncAlways)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rec := jobRecord("job-000001")
		for pb.Next() {
			if err := j.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeRecord(b *testing.B) {
	rec := jobRecord("job-000000")
	rec.Seq = 42
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendRecord(buf[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	rec := jobRecord("job-000000")
	rec.Seq = 42
	frame, err := AppendRecord(nil, rec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecord(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover measures Open on an existing directory — the
// journal's share of a daemon restart. jobs=1024 is a log-only replay
// (a daemon that crashed before its first compaction). jobs=15000 is
// shaped like the directory corunmark's serve-ack leaves behind: two
// records per job (submitted alone, done in epoch batches), compaction
// at the default 4 MiB, so Open reads a multi-MB snapshot and then a
// tail of several thousand records.
func BenchmarkRecover(b *testing.B) {
	for _, tc := range []struct {
		jobs          int
		snapshotBytes int64
		minTail       int
	}{
		{jobs: 1024, snapshotBytes: -1, minTail: 1024},
		{jobs: 15000, snapshotBytes: 0, minTail: 7000},
	} {
		b.Run(fmt.Sprintf("jobs=%d", tc.jobs), func(b *testing.B) {
			dir := b.TempDir()
			writeServeShaped(b, dir, tc.jobs, tc.snapshotBytes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, st, stats, err := Open(Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if len(st.Jobs) != tc.jobs || stats.RecordsReplayed < tc.minTail || stats.SlowPathRecords != 0 {
					b.Fatalf("recovered %d jobs, %+v", len(st.Jobs), stats)
				}
				j.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perJob := 1 / (float64(b.N) * float64(tc.jobs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*perJob, "ns/job")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)*perJob, "B/job")
		})
	}
}

// TestRecoverAllocs is a count gate, a ceiling at today's value plus
// a small margin: allocations per recovered job when Open reads
// BenchmarkRecover's 15,000-job directory on two decoding goroutines
// (pinned, since each goroutine has its own slab and intern table).
// Most of the 2.6 per job are the job record and the strings that are
// not interned: its ID and its partner's.
func TestRecoverAllocs(t *testing.T) {
	const jobs, ceiling = 15000, 2.65
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dir := t.TempDir()
	writeServeShaped(t, dir, jobs, 0)
	allocs := testing.AllocsPerRun(3, func() {
		j, st, _, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Jobs) != jobs {
			t.Fatalf("recovered %d jobs", len(st.Jobs))
		}
		j.Close()
	})
	if perJob := allocs / jobs; perJob > ceiling {
		t.Errorf("Open allocated %.3f times per recovered job, ceiling %.3f", perJob, ceiling)
	} else {
		t.Logf("%.3f allocations per recovered job", perJob)
	}
}

// writeServeShaped journals jobs the way a serving daemon does: every
// job's submitted record in an Append of its own, and after every 4
// submissions (serve-ack's epochs run 3-4 jobs) one Append with their
// done records, the epoch's clock and, on the first, its heatsink.
func writeServeShaped(tb testing.TB, dir string, jobs int, snapshotBytes int64) {
	tb.Helper()
	j, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: snapshotBytes})
	if err != nil {
		tb.Fatal(err)
	}
	const epochJobs = 4
	programs := []string{"streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud", "leukocyte", "heartwall"}
	t0 := time.Date(2026, 10, 2, 9, 0, 0, 0, time.UTC)
	var epoch []Record
	for i := 0; i < jobs; i++ {
		// Irrational steps, so the floats print at full width like the
		// simulator's do.
		p := programs[i%len(programs)]
		jr := JobRecord{
			ID: fmt.Sprintf("job-%06d", i), Program: p, Label: p, Scale: 0.9 + float64(i%3001)/1e4,
			Tenant: "default", Priority: "normal",
			SubmittedAt: t0.Add(time.Duration(i) * 987654 * time.Nanosecond),
			ArrivedSimS: float64(i/epochJobs) * 29 * math.Pi, State: "queued",
		}
		sub := jr
		if err := j.Append(Record{Type: TypeJobSubmitted, Job: &sub}); err != nil {
			tb.Fatal(err)
		}
		clock := float64(i/epochJobs+1) * 29 * math.Pi
		jr.State, jr.Epoch = "done", i/epochJobs+1
		jr.StartedSimS = jr.ArrivedSimS + float64(i%epochJobs)*math.E
		jr.FinishedSimS = clock - float64(i%epochJobs)*math.Sqrt2
		jr.PredictedFinishSimS = jr.FinishedSimS * (1 - 1e-3/math.Pi)
		jr.ResponseS = jr.FinishedSimS - jr.ArrivedSimS
		jr.Device = []string{"CPU", "GPU"}[i%2]
		if i%epochJobs != 0 {
			jr.Partner = fmt.Sprintf("job-%06d", i-1)
		}
		rec := Record{Type: TypeJobState, Job: &jr, SimClockS: clock}
		if i%epochJobs == 0 {
			rec.Heat = &Heat{TempC: 30 + float64(i%1501)/100, CPUCeil: 15, GPUCeil: 9}
		}
		epoch = append(epoch, rec)
		if len(epoch) == epochJobs || i == jobs-1 {
			if err := j.Append(epoch...); err != nil {
				tb.Fatal(err)
			}
			epoch = nil
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
}
