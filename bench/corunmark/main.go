// Command corunmark is the repository's benchmark: four workloads,
// eight end-to-end metrics each, per-layer attribution from a separate
// traced run. It drives the system only through the root corun facade
// and the corund binary's flags and HTTP API. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runEnv is one run's surroundings: where the binaries are, where data
// goes, what the command line asked for.
type runEnv struct {
	corund  string // the daemon under test
	probe   string // the traced run's stage-replay binary
	workDir string
	dataDir string // where runs put their data directories
	runDir  string // this run's data directories, removed at exit
	hc      *http.Client
	seed    int64
	seconds float64
	trace   bool
}

func (e *runEnv) tracePath(wl *workloadDef) string {
	return filepath.Join(e.workDir, "trace", wl.name+".trace.json")
}

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	e2e               map[string]float64 // timings in reference time (calib.go)
	raw               map[string]float64 // the same timings as measured
	samples           map[string]int
	layer             map[string]float64
	problems          []string // failed output checks
	digest            string   // plan-fig11: hash of every plan and makespan
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, raw: map[string]float64{}, samples: map[string]int{}, layer: map[string]float64{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.e2e[name] = v
	r.samples[name] = samples
}

// setTimed books a timing in reference time and as measured.
func (r *result) setTimed(name string, ref, measured float64, samples int) {
	r.set(name, ref, samples)
	r.raw[name] = measured
}

// count books a closed loop's jobs; its first failure, if any, is
// named among the failed checks.
func (r *result) count(st *loopStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	if st.firstErr != nil {
		r.problem("%d of %d jobs failed, first: %v", st.failed, st.attempted, st.firstErr)
	}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// correct is the output check's verdict: no failed operation, no
// failed check, and every end-to-end metric a finite non-zero number.
func (r *result) correct() bool {
	for _, m := range endToEnd {
		if v := r.e2e[m.Name]; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("%s is %v", m.Name, v)
		}
	}
	return r.failed == 0 && len(r.problems) == 0
}

func (e *runEnv) run(wl *workloadDef) (*result, error) {
	dir, err := os.MkdirTemp(e.dataDir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.runDir = dir
	if wl.nodeArgs == nil {
		return e.runPlan(wl)
	}
	return e.runDaemon(wl)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the run for a reader, then the one-line JSON result
// the driver parses: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func (e *runEnv) report(r *result) bool {
	ok := r.correct()
	for _, m := range endToEnd {
		line := fmt.Sprintf("%-36s %14.6g %-6s samples=%d", m.Name, r.e2e[m.Name], m.Unit, r.samples[m.Name])
		if raw, timed := r.raw[m.Name]; timed {
			line += fmt.Sprintf(" measured=%.6g", raw)
		}
		fmt.Println(line)
	}
	for _, m := range perLayer {
		if v, set := r.layer[m.Name]; set {
			fmt.Printf("%-36s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if r.digest != "" {
		fmt.Printf("digest=%s\n", r.digest)
	}
	fmt.Printf("attempted=%d failed=%d failed_share=%.6f\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	metrics := map[string]metricValue{}
	if e.trace {
		for _, m := range perLayer {
			metrics[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{r.e2e[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": ok, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "corunmark:", err)
		return false
	}
	fmt.Println(string(line))
	return ok
}

// fsName names the filesystem below path, so a report says whether
// journal flushes hit memory or a device.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | ")+"; with -repeat also all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", refSeconds, "nominal length of the measured window; rescales the fixed job counts")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the spans")
	work := flag.String("work", ".bench_build", "directory of the built binaries (bin/), run data (data/) and traces (trace/)")
	dataRoot := flag.String("data-root", "", "where the daemons' data directories go (default <work>/data)")
	repeat := flag.Int("repeat", 1, "run this many times, seeds counting up from -seed, and print each metric's median and quartiles")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace != 0, *work, *dataRoot, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "corunmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("output checks failed")

func mainErr(workload string, seed int64, seconds float64, trace bool, work, dataRoot string, repeat int) error {
	if seconds <= 0 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return err
	}
	if dataRoot == "" {
		dataRoot = filepath.Join(work, "data")
	}
	if dataRoot, err = filepath.Abs(dataRoot); err != nil {
		return err
	}
	env := &runEnv{
		corund:  filepath.Join(work, "bin", "corund"),
		probe:   filepath.Join(work, "bin", "probe"),
		workDir: work,
		dataDir: dataRoot,
		hc:      &http.Client{Timeout: 30 * time.Second},
		seed:    seed,
		seconds: seconds,
		trace:   trace,
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	var wls []*workloadDef
	if workload == "all" && repeat > 1 {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	} else {
		wl, err := findWorkload(workload)
		if err != nil {
			return err
		}
		wls = append(wls, wl)
	}
	// Fail before any measuring if a binary run.sh builds is missing.
	for _, wl := range wls {
		if _, err := os.Stat(env.corund); err != nil && wl.nodeArgs != nil {
			return fmt.Errorf("the daemon is not built: %w", err)
		}
	}
	if _, err := os.Stat(env.probe); err != nil && trace {
		return fmt.Errorf("the traced run's probe is not built: %w", err)
	}
	fmt.Printf("corunmark seed=%d seconds=%g trace=%t host_cpus=%d clients=1 go=%s data_fs=%s data_root=%s\n",
		seed, seconds, trace, runtime.NumCPU(), runtime.Version(), fsName(dataRoot), dataRoot)

	if repeat == 1 {
		fmt.Printf("workload=%s\n", wls[0].name)
		res, err := env.run(wls[0])
		if err != nil {
			return err
		}
		if !env.report(res) {
			return errIncorrect
		}
		return nil
	}
	return env.repeat(wls, repeat)
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// repeat runs the workloads n times each, interleaved, and prints for
// every end-to-end metric the median, the quartiles and the spread
// over all runs, the spread of the same timings as measured, and the
// medians of the odd and the even runs: two interleaved sets of one
// commit, which must agree within the bound.
func (e *runEnv) repeat(wls []*workloadDef, n int) error {
	values := map[string]map[string][]float64{}   // workload, metric, run
	measured := map[string]map[string][]float64{} // the same, as measured
	correct, first := true, e.seed
	for r := 0; r < n; r++ {
		for _, wl := range wls {
			e.seed = first + int64(r)
			res, err := e.run(wl)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, r, err)
			}
			fmt.Printf("workload=%s run=%d seed=%d\n", wl.name, r, e.seed)
			correct = e.report(res) && correct
			if values[wl.name] == nil {
				values[wl.name] = map[string][]float64{}
				measured[wl.name] = map[string][]float64{}
			}
			for name, v := range res.e2e {
				values[wl.name][name] = append(values[wl.name][name], v)
			}
			for name, v := range res.raw {
				measured[wl.name][name] = append(measured[wl.name][name], v)
			}
		}
	}
	fmt.Printf("\n| workload | metric | unit | median | q1 | q3 | spread %% | as measured %% | set A median | set B median | A vs B %% | bound %% |\n|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range wls {
		for _, m := range endToEnd {
			xs := values[wl.name][m.Name]
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			q1, q3 := quartiles(xs)
			asMeasured := "" // makespan_vs_bound is simulated
			if raw := measured[wl.name][m.Name]; raw != nil {
				asMeasured = fmt.Sprintf("%.2f", spreadPct(raw))
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f | %s | %.6g | %.6g | %.2f | %g |\n",
				wl.name, m.Name, m.Unit, median(xs), q1, q3, spreadPct(xs), asMeasured,
				median(a), median(b), 100*math.Abs(median(b)-median(a))/median(a), 100*m.Bound)
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}
