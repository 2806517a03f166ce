package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"corun/bench/corunmark/wire"
)

// replayBodies bounds how many requests go through the probe's serving
// stages: each costs a journal flush, and the medians settle long
// before this many.
const replayBodies = 2000

// stageSpans are the probe's planning-stage spans; each becomes the
// per-layer metric <name>_ms, the median over the replayed epochs of
// the stage's self time.
var stageSpans = []string{
	"profile.collect", "model.predictor", "core.context", "policy.plan",
	"core.predict", "sim.execute", "core.bound",
}

// flagValue returns the value following name in a flag list.
func flagValue(args []string, name string) string {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == name {
			return args[i+1]
		}
	}
	return ""
}

// stageReplay runs the probe binary over the batches the run planned
// and, for a daemon workload, over the head of the request stream, and
// folds what it measured into the per-layer metrics. The probe is a
// process of its own so that the harness links no internal package.
func (e *runEnv) stageReplay(wl *workloadDef, reqs []jobReq, batches [][]batchJob, res *result) ([]span, error) {
	in := wire.Input{CapWatts: capWatts, Policy: planPolicy, Seed: e.seed, Batches: batches}
	if wl.nodeArgs != nil {
		in.Policy = flagValue(wl.nodeArgs, "-policy")
		in.TMaxC, _ = strconv.ParseFloat(flagValue(wl.nodeArgs, "-tmax"), 64) // absent = 0 = the preset
		in.MaxBatch, _ = strconv.Atoi(flagValue(wl.nodeArgs, "-max-batch"))
		in.Dir = filepath.Join(e.runDir, "probe-journal")
		in.Weights = map[string]float64{}
		for _, kv := range strings.Split(flagValue(wl.nodeArgs, "-tenant-weights"), ",") {
			if name, w, ok := strings.Cut(kv, "="); ok {
				in.Weights[name], _ = strconv.ParseFloat(w, 64)
			}
		}
		for _, r := range reqs[:min(replayBodies, len(reqs))] {
			in.Bodies = append(in.Bodies, string(r.body))
		}
	}
	raw, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.probe)
	cmd.Env = childEnv()
	cmd.Stdin = bytes.NewReader(raw)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("stage replay: %w: %s", err, stderr.String())
	}
	var out wire.Output
	if err := json.Unmarshal(stdout, &out); err != nil {
		return nil, fmt.Errorf("stage replay: %w", err)
	}

	L := res.layer
	for name, v := range out.Metrics {
		L[name] = v
	}
	self := selfTimes(out.Spans)
	for _, name := range stageSpans {
		if len(self[name]) == 0 {
			return nil, fmt.Errorf("stage replay recorded no %s span", name)
		}
		L[name+"_ms"] = median(self[name])
	}
	L["trace.coverage_pct"] = 100 * L["trace.replay_cpu_ms_per_job"] / res.raw["cpu_ms_per_job"] // both as measured
	return out.Spans, nil
}
