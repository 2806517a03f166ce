// Package wire is what the corunmark harness and its probe binary
// exchange: the harness writes one Input to the probe's standard
// input and reads one Output from its standard output.
package wire

import (
	"fmt"

	"corun"
)

// Span is one timed interval of a traced run. Spans of one trip (a
// job's trip, or one planning epoch) share Trip; Parent is the ID of
// the span that caused this one, 0 for a root. Times are nanoseconds
// since the recorder's origin.
type Span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
	Trip   int64  `json:"trip"`
}

// BatchJob is one member of a batch: a benchmark program at an input
// scale.
type BatchJob struct {
	Program string  `json:"program"`
	Scale   float64 `json:"scale"`
}

// Input tells the probe what to replay.
type Input struct {
	CapWatts float64 `json:"cap_watts"`
	TMaxC    float64 `json:"tmax_c"` // 0 = the machine's own trip point
	Policy   string  `json:"policy"`
	Seed     int64   `json:"seed"`

	// Batches go through the planning stages one by one.
	Batches [][]BatchJob `json:"batches"`

	// Bodies are POST /v1/jobs request bodies; when present they go
	// through the serving stages (decode, admission, journal), with
	// the journal written below Dir.
	Bodies   []string           `json:"bodies,omitempty"`
	Weights  map[string]float64 `json:"weights,omitempty"`
	MaxBatch int                `json:"max_batch,omitempty"`
	Dir      string             `json:"dir,omitempty"`
}

// Output is what the probe measured: spans of the planning stages, one
// trip per batch, and the metrics it computes itself.
type Output struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []Span             `json:"spans"`
}

// Instances builds the batch through the facade: benchmark programs by
// name, at the members' scales, with IDs equal to positions.
func Instances(batch []BatchJob) ([]*corun.Instance, error) {
	programs := map[string]*corun.Instance{}
	for _, in := range corun.Batch16() {
		programs[in.Prog.Name] = in
	}
	out := make([]*corun.Instance, len(batch))
	for i, m := range batch {
		ref, ok := programs[m.Program]
		if !ok {
			return nil, fmt.Errorf("unknown program %q", m.Program)
		}
		out[i] = &corun.Instance{ID: i, Prog: ref.Prog, Scale: m.Scale, Label: fmt.Sprintf("%s/%d", m.Program, i)}
	}
	return out, nil
}
