package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// TestExplainPlanGolden pins ExplainPlan byte for byte against the
// output of the last commit that had its own copy of the timeline
// (explainTimeline), captured there for Batch8 / hcs+ (seed 7) / 15 W.
func TestExplainPlanGolden(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	s, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(batch))
	for i, in := range batch {
		labels[i] = in.Label
	}
	var got bytes.Buffer
	if err := cx.ExplainPlan(&got, s, labels); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "explain_batch8_hcsplus_15w.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ExplainPlan drifted from the golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

// capCases are the constraint shapes the timeline tests (here and in
// package core_test) cross batches with: the package cap, a plane cap
// alone, and nothing.
var capCases = []struct {
	Name    string
	Cap     units.Watts
	Domains apu.DomainCaps
}{
	{"cap15", 15, apu.DomainCaps{}},
	{"pp1-only", 0, apu.DomainCaps{PP1: 9}},
	{"uncapped", 0, apu.DomainCaps{}},
}

var batchCases = []struct {
	Name  string
	Batch func() []*workload.Instance
}{
	{"batch8", workload.Batch8},
	{"batch16", workload.Batch16},
}

// TestGreedyPlanRewalked checks that the planner and the evaluator see
// one timeline: the completions HCS step 3 observed while it built its
// schedule are, event for event and bit for bit, the completions a
// walk of that schedule visits.
func TestGreedyPlanRewalked(t *testing.T) {
	for _, bc := range batchCases {
		for _, cc := range capCases {
			t.Run(bc.Name+"/"+cc.Name, func(t *testing.T) {
				cx, _ := testContext(t, bc.Batch(), cc.Cap)
				cx.Domains = cc.Domains
				part := cx.PartitionJobs()
				prefs, err := cx.Categorize(part.SCo)
				if err != nil {
					t.Fatal(err)
				}
				var planned, walked []timelineEvent
				s, err := cx.greedyPlan(part.SCo, prefs, func(ev timelineEvent) error {
					planned = append(planned, ev)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(planned) != len(part.SCo) {
					t.Fatalf("planner saw %d completions of %d jobs", len(planned), len(part.SCo))
				}
				if _, err := cx.walk(s, func(ev timelineEvent) error {
					if ev.done {
						walked = append(walked, ev)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(planned, walked) {
					t.Errorf("completions differ:\nplanner %+v\nwalk    %+v", planned, walked)
				}
			})
		}
	}
}

// batch16Plan is the schedule the walk's cost is measured on, with the
// context's frequency-choice memo already warm for it.
func batch16Plan(tb testing.TB) (*Context, *Schedule) {
	tb.Helper()
	cx, _ := testContext(tb, workload.Batch16(), 15)
	s, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := cx.walk(s, nil); err != nil {
		tb.Fatal(err)
	}
	return cx, s
}

// TestWalkAllocatesNothing holds the shared walk to what the evaluator
// it replaced (predictedMakespanUncached) cost on the same schedule:
// zero allocations, measured at the parent commit.
func TestWalkAllocatesNothing(t *testing.T) {
	cx, s := batch16Plan(t)
	if a := testing.AllocsPerRun(100, func() {
		if _, err := cx.walk(s, nil); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("walk allocates %v times per schedule, want 0", a)
	}
}

var sinkSeconds units.Seconds

// BenchmarkPredictedMakespan times one unmemoized walk of the Batch16
// hcs+ schedule under 15 W with the frequency choices warm.
func BenchmarkPredictedMakespan(b *testing.B) {
	cx, s := batch16Plan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := cx.walk(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkSeconds = t
	}
}
