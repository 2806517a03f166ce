// Command characterize runs the micro-benchmark characterization pass
// (section V) and dumps the co-run degradation surfaces as CSV, one
// row per (cpu-level, gpu-level) cell. To persist a characterization
// for planning, use corund -save-char, which measures the staged
// frequency grid the planner interpolates over.
//
// Usage:
//
//	characterize [-levels n] [-freqs all|max]
package main

import (
	"flag"
	"fmt"
	"os"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
)

func main() {
	nLevels := flag.Int("levels", 11, "number of micro-kernel bandwidth levels over 0-11 GB/s")
	freqs := flag.String("freqs", "max", "max = only the top-frequency surface; all = the staged grid")
	flag.Parse()

	cfg := apu.DefaultConfig()
	mem := memsys.Default()
	opts := model.CharacterizeOptions{
		Cfg: cfg, Mem: mem,
		Levels: model.Levels(*nLevels, 11),
	}
	if *freqs == "max" {
		opts.CPUFreqLevels = []int{cfg.MaxFreqIndex(apu.CPU)}
		opts.GPUFreqLevels = []int{cfg.MaxFreqIndex(apu.GPU)}
	}
	char, err := model.Characterize(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}

	fmt.Println("cpu_ghz,gpu_ghz,cpu_bw_gbps,gpu_bw_gbps,deg_cpu,deg_gpu")
	for a, cf := range char.CPULevels {
		for b, gf := range char.GPULevels {
			s := char.SurfaceAt(a, b)
			cg := float64(cfg.Freq(apu.CPU, cf))
			gg := float64(cfg.Freq(apu.GPU, gf))
			for i := range s.CPUBW {
				for j := range s.GPUBW {
					fmt.Printf("%.2f,%.2f,%.3f,%.3f,%.4f,%.4f\n",
						cg, gg, s.CPUBW[i], s.GPUBW[j], s.DegCPU[i][j], s.DegGPU[i][j])
				}
			}
		}
	}
}
