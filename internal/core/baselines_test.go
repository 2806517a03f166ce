package core

import (
	"runtime"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/workload"
)

// executeRandomBytes is the heap bytes of one ExecuteRandom run of
// Batch8 at 15 W, the Random baseline's epoch on the daemon: 6,824
// measured on linux/amd64, plus a 2,048-byte margin for size-class
// rounding on other toolchains. The dispatcher's generator is reused
// from run to run, not built afresh (about 5 KB). A change that lowers
// it lowers it here in the same diff; one that raises it says why.
const executeRandomBytes = 6_824 + 2_048

func TestExecuteRandomBytes(t *testing.T) {
	opts := ExecOptions{Cfg: apu.DefaultConfig(), Mem: memsys.Default(), Cap: 15}
	batch := workload.Batch8()
	run := func() {
		if _, err := ExecuteRandom(opts, batch, 1); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > executeRandomBytes {
		t.Errorf("one ExecuteRandom run of Batch8 allocates %d bytes, ceiling %d", b, executeRandomBytes)
	}
}
