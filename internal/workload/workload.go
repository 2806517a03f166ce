// Package workload defines the benchmark programs used throughout the
// reproduction: analytic stand-ins for the eight Rodinia OpenCL
// programs the paper evaluates (streamcluster, cfd, dwt2d, hotspot,
// srad, lud, leukocyte, heartwall).
//
// Each program's parameters are calibrated so that, on the default
// machine at maximum frequencies, its standalone CPU and GPU execution
// times match Table I of the paper, its processor preference matches
// the paper's labels (six GPU-preferred, dwt2d CPU-preferred, lud
// non-preferred), and its memory-demand ordering reproduces the co-run
// anecdotes of section III.
package workload

import (
	"fmt"

	"corun/internal/kernelsim"
)

// Instance is one job: a program plus an input scale. Two instances of
// the same program with different scales model the paper's "two
// instances ... with different inputs" 16-program experiment.
type Instance struct {
	// ID is unique within a batch and indexes scheduler tables.
	ID int

	// Prog is the program model; instances share Program values.
	Prog *kernelsim.Program

	// Scale multiplies the program's work (input size).
	Scale float64

	// Label names the instance for reports, e.g. "cfd#2".
	Label string
}

// String implements fmt.Stringer.
func (in *Instance) String() string { return in.Label }

// programTable holds the calibrated models. Times quoted in the
// comments are the paper's Table I standalone seconds (CPU @3.6 GHz,
// GPU @1.25 GHz); the parameters reproduce them on the default machine.
var programTable = []kernelsim.Program{
	{
		// streamcluster: 59.71 s CPU / 23.72 s GPU, heavy streaming on
		// the GPU (~8.2 GB/s demand), latency tolerant there.
		Name: "streamcluster", Work: 100,
		CPUEff: 0.4652, GPUEff: 3.3728,
		CPUSens: 0.25, GPUSens: 0.05,
		Phases: []kernelsim.Phase{
			{Frac: 0.75, BytesPerOp: 2.20},
			{Frac: 0.25, BytesPerOp: 1.18},
		},
	},
	{
		// cfd: 49.69 s CPU / 26.32 s GPU, unstructured-grid solver with
		// substantial memory traffic (~6.5 GB/s on GPU).
		Name: "cfd", Work: 100,
		CPUEff: 0.5590, GPUEff: 3.0395,
		CPUSens: 0.30, GPUSens: 0.10,
		Phases: []kernelsim.Phase{
			{Frac: 0.60, BytesPerOp: 2.10},
			{Frac: 0.40, BytesPerOp: 1.10},
		},
	},
	{
		// dwt2d: 24.37 s CPU / 61.66 s GPU — the one CPU-preferred
		// program. Irregular wavelet accesses make it extremely
		// latency sensitive on the CPU (the 81%-slowdown victim of
		// section III).
		Name: "dwt2d", Work: 100,
		CPUEff: 1.1398, GPUEff: 1.2976,
		CPUSens: 1.35, GPUSens: 0.20,
		Phases: []kernelsim.Phase{
			{Frac: 0.70, BytesPerOp: 1.90},
			{Frac: 0.30, BytesPerOp: 0.85},
		},
	},
	{
		// hotspot: 70.24 s CPU / 28.52 s GPU, compute-bound stencil
		// with a small working set (~2 GB/s GPU demand) — the gentle
		// co-runner of section III.
		Name: "hotspot", Work: 100,
		CPUEff: 0.3954, GPUEff: 2.8050,
		CPUSens: 0.20, GPUSens: 0.05,
		Phases: []kernelsim.Phase{
			{Frac: 0.50, BytesPerOp: 0.75},
			{Frac: 0.50, BytesPerOp: 0.39},
		},
	},
	{
		// srad: 51.39 s CPU / 23.71 s GPU, diffusion kernel with high
		// bandwidth appetite (~7 GB/s on GPU).
		Name: "srad", Work: 100,
		CPUEff: 0.5405, GPUEff: 3.3740,
		CPUSens: 0.28, GPUSens: 0.10,
		Phases: []kernelsim.Phase{
			{Frac: 0.65, BytesPerOp: 2.00},
			{Frac: 0.35, BytesPerOp: 1.03},
		},
	},
	{
		// lud: 27.76 s CPU / 24.83 s GPU — the non-preferred program
		// (ratio 1.12, below the 20% threshold).
		Name: "lud", Work: 100,
		CPUEff: 1.0006, GPUEff: 3.2223,
		CPUSens: 0.30, GPUSens: 0.15,
		Phases: []kernelsim.Phase{
			{Frac: 0.50, BytesPerOp: 1.40},
			{Frac: 0.50, BytesPerOp: 0.60},
		},
	},
	{
		// leukocyte: 50.88 s CPU / 23.08 s GPU, tracking kernels with
		// moderate bandwidth (~5 GB/s on GPU).
		Name: "leukocyte", Work: 100,
		CPUEff: 0.5459, GPUEff: 3.4662,
		CPUSens: 0.22, GPUSens: 0.08,
		Phases: []kernelsim.Phase{
			{Frac: 0.55, BytesPerOp: 1.50},
			{Frac: 0.45, BytesPerOp: 0.73},
		},
	},
	{
		// heartwall: 54.68 s CPU / 22.99 s GPU, image-processing
		// pipeline (~6 GB/s GPU demand).
		Name: "heartwall", Work: 100,
		CPUEff: 0.5080, GPUEff: 3.4798,
		CPUSens: 0.25, GPUSens: 0.12,
		Phases: []kernelsim.Phase{
			{Frac: 0.60, BytesPerOp: 1.70},
			{Frac: 0.40, BytesPerOp: 0.90},
		},
	},
}

// Names returns the benchmark names in canonical (paper Table I) order.
func Names() []string {
	out := make([]string, len(programTable))
	for i := range programTable {
		out[i] = programTable[i].Name
	}
	return out
}

// Programs returns fresh copies of all eight program models in
// canonical order. Callers may mutate the copies freely.
func Programs() []*kernelsim.Program {
	out := make([]*kernelsim.Program, len(programTable))
	for i := range programTable {
		p := programTable[i]
		p.Phases = append([]kernelsim.Phase(nil), programTable[i].Phases...)
		out[i] = &p
	}
	return out
}

// ByName returns a fresh copy of the named program model.
func ByName(name string) (*kernelsim.Program, error) {
	for i := range programTable {
		if programTable[i].Name == name {
			p := programTable[i]
			p.Phases = append([]kernelsim.Phase(nil), programTable[i].Phases...)
			return &p, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown program %q", name)
}

// MustByName is ByName for known-good names; it panics otherwise.
func MustByName(name string) *kernelsim.Program {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Batch8 returns the paper's 8-program workload: one instance of each
// benchmark at the reference input size.
func Batch8() []*Instance {
	progs := Programs()
	out := make([]*Instance, len(progs))
	for i, p := range progs {
		out[i] = &Instance{ID: i, Prog: p, Scale: 1.0, Label: p.Name}
	}
	return out
}

// Batch16 returns the paper's 16-program workload: two instances of
// each benchmark with different inputs (the second scaled by 1.15).
func Batch16() []*Instance {
	progs := Programs()
	out := make([]*Instance, 0, 2*len(progs))
	id := 0
	for _, p := range progs {
		out = append(out, &Instance{ID: id, Prog: p, Scale: 1.0, Label: p.Name + "#1"})
		id++
		out = append(out, &Instance{ID: id, Prog: p, Scale: 1.15, Label: p.Name + "#2"})
		id++
	}
	return out
}

// Subset builds a batch from the named programs, in the given order,
// all at the reference input size.
func Subset(names ...string) ([]*Instance, error) {
	out := make([]*Instance, len(names))
	for i, n := range names {
		p, err := ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = &Instance{ID: i, Prog: p, Scale: 1.0, Label: n}
	}
	return out, nil
}

// Validate checks every program model in the table.
func Validate() error {
	seen := map[string]bool{}
	for i := range programTable {
		p := programTable[i]
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return fmt.Errorf("workload: duplicate program %q", p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}
