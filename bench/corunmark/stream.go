package main

import (
	"math/rand"
	"strconv"

	"corun"
)

// jobReq is one generated submission: the request body the daemon
// gets, and the tenant it was drawn for.
type jobReq struct {
	body   []byte
	tenant string
}

// drawScale is the seeded input-size factor every generated job
// carries: uniform in [0.8, 1.3), kept to four decimals so the body,
// the daemon's echo and the bound computed from that echo agree.
func drawScale(rng *rand.Rand) float64 {
	return float64(8000+rng.Intn(5000)) / 10000
}

func pick(rng *rand.Rand, mix []share) share {
	total := 0
	for _, s := range mix {
		total += s.weight
	}
	n := rng.Intn(total)
	for _, s := range mix {
		if n < s.weight {
			return s
		}
		n -= s.weight
	}
	return mix[len(mix)-1]
}

func encodeJob(program string, scale float64, tenant share) jobReq {
	b := []byte(`{"program":"` + program + `","scale":`)
	b = strconv.AppendFloat(b, scale, 'f', -1, 64)
	if tenant.name != "" {
		b = append(b, `,"tenant":"`+tenant.name+`","priority":"`+tenant.priority+`"`...)
	}
	return jobReq{body: append(b, '}'), tenant: tenant.name}
}

// genStream draws n submissions of the workload's mix from rng.
func genStream(rng *rand.Rand, n int, wl *workloadDef) []jobReq {
	programs := wl.programs
	if programs == nil {
		for _, name := range corun.BenchmarkNames() {
			programs = append(programs, share{name: name, weight: 1})
		}
	}
	out := make([]jobReq, n)
	for i := range out {
		var tenant share
		if wl.tenants != nil {
			tenant = pick(rng, wl.tenants)
		}
		out[i] = encodeJob(pick(rng, programs).name, drawScale(rng), tenant)
	}
	return out
}

// fig11Stream is the paper's Fig. 11 batch as sixteen submissions, the
// fixed work of every cold boot.
func fig11Stream() []jobReq {
	var out []jobReq
	for _, in := range corun.Batch16() {
		out = append(out, encodeJob(in.Prog.Name, in.Scale, share{}))
	}
	return out
}
