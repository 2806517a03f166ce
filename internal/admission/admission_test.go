package admission

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return q
}

func add(t *testing.T, q *Queue, tenant string, class Class, id string) {
	t.Helper()
	err := q.Add(Entry{ID: id, Tenant: tenant, Class: class, EnqueuedAt: t0})
	if err != nil {
		t.Fatalf("Add(%s/%s/%s): %v", tenant, class, id, err)
	}
}

// TestWFQWeightedShares pins the fairness property: two continuously
// backlogged tenants with weights 1:3 are admitted in a ~1:3 ratio
// over a long run, one selection at a time.
func TestWFQWeightedShares(t *testing.T) {
	q := mustNew(t, Config{Weights: map[string]float64{"a": 1, "b": 3}})
	const perTenant = 400
	for i := 0; i < perTenant; i++ {
		add(t, q, "a", ClassNormal, fmt.Sprintf("a-%03d", i))
		add(t, q, "b", ClassNormal, fmt.Sprintf("b-%03d", i))
	}
	// Select one at a time and look at the mix over the window where
	// both tenants are still backlogged (tenant b drains first).
	counts := map[string]int{}
	now := t0
	for q.TenantDepth("a") > 0 && q.TenantDepth("b") > 0 {
		now = now.Add(time.Second)
		got := q.SelectBatch(1, now)
		if len(got) != 1 {
			t.Fatalf("SelectBatch(1) returned %d entries", len(got))
		}
		counts[got[0].Tenant]++
	}
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("one tenant never selected: %v", counts)
	}
	ratio := float64(counts["b"]) / float64(counts["a"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("admission ratio b:a = %.2f (counts %v), want ~3.0", ratio, counts)
	}
}

// TestWFQZeroWeightProgress pins the starvation floor: a tenant
// configured with weight 0 still drains while a heavy competitor
// stays backlogged.
func TestWFQZeroWeightProgress(t *testing.T) {
	q := mustNew(t, Config{Weights: map[string]float64{"starved": 0, "heavy": 10}})
	for i := 0; i < 8; i++ {
		add(t, q, "starved", ClassNormal, fmt.Sprintf("s-%02d", i))
	}
	for i := 0; i < 4000; i++ {
		add(t, q, "heavy", ClassNormal, fmt.Sprintf("h-%04d", i))
	}
	selected := 0
	now := t0
	for q.TenantDepth("heavy") > 0 && q.TenantDepth("starved") > 0 {
		now = now.Add(time.Second)
		for _, e := range q.SelectBatch(1, now) {
			if e.Tenant == "starved" {
				selected++
			}
		}
	}
	if q.TenantDepth("starved") != 0 {
		t.Fatalf("zero-weight tenant starved: %d jobs still queued after heavy tenant drained",
			q.TenantDepth("starved"))
	}
	if selected != 8 {
		t.Fatalf("selected %d starved jobs, want 8", selected)
	}
}

// TestWFQDeterministic pins determinism: the same arrival order
// always yields the same selection order.
func TestWFQDeterministic(t *testing.T) {
	run := func() []string {
		q := mustNew(t, Config{Weights: map[string]float64{"a": 2, "b": 1, "c": 5}})
		tenants := []string{"a", "b", "c", "a", "b", "a", "c", "c", "b", "a"}
		classes := []Class{ClassNormal, ClassHigh, ClassLow, ClassNormal, ClassNormal,
			ClassHigh, ClassNormal, ClassLow, ClassNormal, ClassLow}
		for i := 0; i < 50; i++ {
			add(t, q, tenants[i%len(tenants)], classes[i%len(classes)], fmt.Sprintf("j-%02d", i))
		}
		var order []string
		now := t0
		for q.Len() > 0 {
			now = now.Add(time.Second)
			for _, e := range q.SelectBatch(3, now) {
				order = append(order, e.ID)
			}
		}
		return order
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d selection order diverged:\n got %v\nwant %v", i, got, first)
		}
	}
}

// TestPriorityStrict pins class ordering: every queued high-priority
// job is selected before any normal one, regardless of tenant weight
// or arrival order, and FIFO holds within (tenant, class).
func TestPriorityStrict(t *testing.T) {
	q := mustNew(t, Config{Weights: map[string]float64{"a": 100}})
	add(t, q, "a", ClassNormal, "n-1")
	add(t, q, "a", ClassLow, "l-1")
	add(t, q, "b", ClassHigh, "h-1")
	add(t, q, "a", ClassHigh, "h-2")
	add(t, q, "b", ClassNormal, "n-2")
	var ids []string
	for _, e := range q.SelectBatch(0, t0) {
		ids = append(ids, e.ID)
	}
	want := []string{"h-1", "h-2", "n-1", "n-2", "l-1"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("selection order %v, want %v", ids, want)
	}
}

// TestPreemptSwapsUntilNoHigher pins the cooperative-preemption
// contract at the epoch boundary: absorb to capacity first, then keep
// swapping while the queue head strictly outranks the batch minimum,
// requeuing each displaced member at the front of its class.
func TestPreemptSwapsUntilNoHigher(t *testing.T) {
	q := mustNew(t, Config{})
	add(t, q, "a", ClassLow, "low-1")
	add(t, q, "a", ClassLow, "low-2")
	batch := q.SelectBatch(2, t0)

	add(t, q, "b", ClassHigh, "high-1")
	add(t, q, "b", ClassNormal, "norm-1")

	kept, requeued := q.Preempt(batch, 2, t0.Add(time.Second))
	var keptIDs, reqIDs []string
	for _, e := range kept {
		keptIDs = append(keptIDs, e.ID)
	}
	for _, e := range requeued {
		reqIDs = append(reqIDs, e.ID)
	}
	// high-1 displaces low-2 (latest low arrival), then norm-1
	// displaces low-1; the batch floor is then ClassNormal and the
	// queue only holds the requeued lows, so swapping stops.
	if !reflect.DeepEqual(keptIDs, []string{"norm-1", "high-1"}) {
		t.Fatalf("kept %v, want [norm-1 high-1]", keptIDs)
	}
	if !reflect.DeepEqual(reqIDs, []string{"low-2", "low-1"}) {
		t.Fatalf("requeued %v, want [low-2 low-1]", reqIDs)
	}
	// The displaced jobs went back at the front with original tags:
	// next epoch selects them first, in original arrival order.
	next := q.SelectBatch(0, t0.Add(2*time.Second))
	if len(next) != 2 || next[0].ID != "low-1" || next[1].ID != "low-2" {
		t.Fatalf("post-preemption selection %v, want [low-1 low-2]", next)
	}
}

// TestPreemptUnboundedAbsorbs pins the default corund configuration
// (MaxBatch 0): preemption degenerates to absorb-everything and never
// requeues, preserving the pre-refactor coalescing semantics.
func TestPreemptUnboundedAbsorbs(t *testing.T) {
	q := mustNew(t, Config{})
	add(t, q, "a", ClassLow, "low-1")
	batch := q.SelectBatch(0, t0)
	add(t, q, "b", ClassHigh, "high-1")
	kept, requeued := q.Preempt(batch, 0, t0.Add(time.Second))
	if len(kept) != 2 || len(requeued) != 0 {
		t.Fatalf("kept %d requeued %d, want 2 and 0", len(kept), len(requeued))
	}
	if q.Len() != 0 {
		t.Fatalf("queue length %d after unbounded preempt, want 0", q.Len())
	}
}

// TestBounds pins the two admission bounds and the FullError scopes.
func TestBounds(t *testing.T) {
	q := mustNew(t, Config{MaxQueue: 3, TenantQueue: 2})
	add(t, q, "a", ClassNormal, "a-1")
	add(t, q, "a", ClassNormal, "a-2")

	err := q.Add(Entry{ID: "a-3", Tenant: "a"})
	var full *FullError
	if !errors.As(err, &full) || full.Scope != ScopeTenant || full.Tenant != "a" || full.Limit != 2 {
		t.Fatalf("tenant bound: got %v (%+v)", err, full)
	}

	add(t, q, "b", ClassNormal, "b-1")
	err = q.Add(Entry{ID: "b-2", Tenant: "b"})
	if !errors.As(err, &full) || full.Scope != ScopeGlobal || full.Limit != 3 {
		t.Fatalf("global bound: got %v (%+v)", err, full)
	}

	// Restore bypasses both bounds: recovery must re-admit journaled
	// jobs even when bounds shrank between runs.
	q.Restore(Entry{ID: "r-1", Tenant: "a"})
	if q.Len() != 4 || q.TenantDepth("a") != 3 {
		t.Fatalf("Restore ignored: len=%d depth(a)=%d", q.Len(), q.TenantDepth("a"))
	}
}

// TestReserve pins the write-ahead window contract: a reservation
// holds capacity against both bounds until released or converted.
func TestReserve(t *testing.T) {
	q := mustNew(t, Config{MaxQueue: 2})
	if err := q.Reserve("a"); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := q.Reserve("a"); err != nil {
		t.Fatalf("Reserve 2: %v", err)
	}
	if err := q.Reserve("a"); err == nil {
		t.Fatal("third Reserve under MaxQueue=2 succeeded")
	}
	q.Unreserve("a")
	q.AddReserved(Entry{ID: "a-1", Tenant: "a"})
	if q.Len() != 1 {
		t.Fatalf("len %d after AddReserved, want 1", q.Len())
	}
	// The released + converted reservations freed one slot.
	if err := q.Reserve("a"); err != nil {
		t.Fatalf("Reserve after release: %v", err)
	}
}

// TestObservability covers depths, drain rate, and oldest wait.
func TestObservability(t *testing.T) {
	q := mustNew(t, Config{})
	q.Add(Entry{ID: "a-1", Tenant: "a", EnqueuedAt: t0})
	q.Add(Entry{ID: "a-2", Tenant: "a", EnqueuedAt: t0.Add(time.Second)})
	q.Add(Entry{ID: "b-1", Tenant: "", EnqueuedAt: t0.Add(2 * time.Second)})

	if got := q.TenantDepth("a"); got != 2 {
		t.Fatalf("TenantDepth(a) = %d, want 2", got)
	}
	if got := q.TenantDepth(""); got != 1 {
		t.Fatalf(`TenantDepth("") = %d, want 1 (default tenant)`, got)
	}
	want := map[string]int{"a": 2, DefaultTenant: 1}
	if got := depths(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("EachDepth visited %v, want %v", got, want)
	}
	if got := q.OldestWait(t0.Add(10 * time.Second)); got != 10*time.Second {
		t.Fatalf("OldestWait = %v, want 10s", got)
	}

	// Tenant a is selected from in two rounds 2s apart (WFQ interleaves
	// the default tenant in between): one job per round -> ~0.5 job/s.
	q.SelectBatch(1, t0.Add(10*time.Second)) // a-1
	q.SelectBatch(1, t0.Add(11*time.Second)) // b-1
	q.SelectBatch(1, t0.Add(12*time.Second)) // a-2
	if got := q.DrainRate("a"); got <= 0 || got > 2 {
		t.Fatalf("DrainRate(a) = %v, want ~0.5", got)
	}
	if got := q.DrainRate("never-seen"); got != 0 {
		t.Fatalf("DrainRate(unseen) = %v, want 0", got)
	}

	if got := q.OldestWait(t0.Add(12 * time.Second)); got != 0 {
		t.Fatalf("OldestWait on empty queue = %v, want 0", got)
	}
	wantEmpty := map[string]int{"a": 0, DefaultTenant: 0}
	if got := depths(q); !reflect.DeepEqual(got, wantEmpty) {
		t.Fatalf("EachDepth after drain visited %v, want %v", got, wantEmpty)
	}
}

// depths collects what EachDepth visits.
func depths(q *Queue) map[string]int {
	out := map[string]int{}
	q.EachDepth(func(tenant string, depth int) { out[tenant] = depth })
	return out
}

// TestNewValidation rejects bad configurations.
func TestNewValidation(t *testing.T) {
	bad := []Config{
		{MaxQueue: -1},
		{TenantQueue: -5},
		{Weights: map[string]float64{"": 1}},
		{Weights: map[string]float64{"ok tenant": 1}},
		{Weights: map[string]float64{"a": -2}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v): want error", i, cfg)
		}
	}
}
