package cluster

import "testing"

func TestParseBalancer(t *testing.T) {
	cases := map[string]Balancer{
		"round-robin": RoundRobin, "rr": RoundRobin,
		"least-loaded": LeastLoaded, "leastloaded": LeastLoaded,
		"affinity-aware": AffinityAware, "affinity": AffinityAware,
		"headroom-aware": HeadroomAware, "headroom": HeadroomAware,
		" Headroom ": HeadroomAware,
	}
	for in, want := range cases {
		got, err := ParseBalancer(in)
		if err != nil || got != want {
			t.Errorf("ParseBalancer(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBalancer("banana"); err == nil {
		t.Fatalf("ParseBalancer accepted an unknown name")
	}
	if _, err := NewPlacer(Balancer(99)); err == nil {
		t.Fatalf("NewPlacer accepted an unknown balancer")
	}
}

func TestJobHint(t *testing.T) {
	cpu := JobHint{CPUTimeS: 1, GPUTimeS: 2}
	if cpu.BiasGPU() != -1 || cpu.BestTimeS() != 1 {
		t.Fatalf("CPU-preferred hint: bias %v best %v", cpu.BiasGPU(), cpu.BestTimeS())
	}
	gpu := JobHint{CPUTimeS: 3, GPUTimeS: 2}
	if gpu.BiasGPU() != 1 || gpu.BestTimeS() != 2 {
		t.Fatalf("GPU-preferred hint: bias %v best %v", gpu.BiasGPU(), gpu.BestTimeS())
	}
	// Ties go to the GPU, matching the offline balancer's historical
	// behavior.
	if (JobHint{CPUTimeS: 2, GPUTimeS: 2}).BiasGPU() != 1 {
		t.Fatalf("tied hint should prefer the GPU")
	}
}

func TestRoundRobinSkipsUnhealthy(t *testing.T) {
	p, err := NewPlacer(RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []NodeState{{}, {Unhealthy: true}, {}}
	var got []int
	for i := 0; i < 4; i++ {
		idx, err := p.Pick(JobHint{CPUTimeS: 1, GPUTimeS: 2}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, idx)
	}
	want := []int{0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin over {ok, down, ok} picked %v, want %v", got, want)
		}
	}
}

func TestPickNoHealthyNode(t *testing.T) {
	for _, b := range []Balancer{RoundRobin, LeastLoaded, AffinityAware, HeadroomAware} {
		p, err := NewPlacer(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Pick(JobHint{CPUTimeS: 1, GPUTimeS: 1}, []NodeState{{Unhealthy: true}, {Unhealthy: true}}); err == nil {
			t.Errorf("%v: Pick over all-unhealthy nodes should error", b)
		}
	}
}

func TestLeastLoadedPicksLightest(t *testing.T) {
	p, _ := NewPlacer(LeastLoaded)
	nodes := []NodeState{{Load: 5}, {Load: 1, Unhealthy: true}, {Load: 2}}
	idx, err := p.Pick(JobHint{CPUTimeS: 1, GPUTimeS: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("least-loaded picked node %d, want 2 (lightest healthy)", idx)
	}
}

func TestAffinityBalancesMix(t *testing.T) {
	p, _ := NewPlacer(AffinityAware)
	// Equal loads; node 0's backlog is GPU-heavy, node 1's CPU-heavy. A
	// GPU-preferred job should land on the CPU-heavy backlog.
	nodes := []NodeState{{Load: 10, BiasGPU: 3}, {Load: 10, BiasGPU: -3}}
	idx, err := p.Pick(JobHint{CPUTimeS: 5, GPUTimeS: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("GPU-preferred job placed on GPU-heavy node %d, want 1", idx)
	}
	// And a CPU-preferred job the other way around.
	idx, err = p.Pick(JobHint{CPUTimeS: 2, GPUTimeS: 5}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("CPU-preferred job placed on CPU-heavy node %d, want 0", idx)
	}
}

func TestHeadroomAwareWeighsPowerShare(t *testing.T) {
	p, _ := NewPlacer(HeadroomAware)
	// Node 0 carries half the pending work but has a quarter of the
	// power: headroom-normalized it is the slower drain, so the job
	// must go to node 1 — which plain affinity (raw load) would not do.
	nodes := []NodeState{
		{Load: 5, HeadroomW: 5},
		{Load: 10, HeadroomW: 20},
	}
	idx, err := p.Pick(JobHint{CPUTimeS: 1, GPUTimeS: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("headroom-aware picked node %d, want 1 (more watts per unit of backlog)", idx)
	}
	raw, _ := NewPlacer(AffinityAware)
	idx, err = raw.Pick(JobHint{CPUTimeS: 1, GPUTimeS: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("affinity-aware control picked node %d, want 0 (raw load ignores headroom)", idx)
	}
}

func TestHeadroomAwareZeroHeadroomRanksLast(t *testing.T) {
	p, _ := NewPlacer(HeadroomAware)
	nodes := []NodeState{
		{Load: 1, HeadroomW: 0}, // powerless: clamped, drains "never"
		{Load: 50, HeadroomW: 15},
	}
	idx, err := p.Pick(JobHint{CPUTimeS: 1, GPUTimeS: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("job placed on powerless node %d, want 1", idx)
	}
}

func TestBalancerString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" ||
		AffinityAware.String() != "affinity-aware" {
		t.Error("balancer names wrong")
	}
	if Balancer(9).String() == "" {
		t.Error("unknown balancer renders empty")
	}
}
