package fleet

import (
	"context"
	"fmt"
	"math"
	"net/http"
)

// Partition splits a fleet-wide power budget across nodes in
// proportion to demand: every healthy node gets the floor, and the
// remainder is divided by demand share (each node weighted demand+1,
// so an idle fleet still splits the budget evenly instead of by
// division-by-zero luck). Unhealthy nodes get 0 — their watts are
// reclaimed and redistributed, which is what lets the survivors speed
// up when a node dies.
//
// If the budget cannot cover the floors, the floors are abandoned and
// the whole budget is split by demand share alone: an over-subscribed
// fleet degrades proportionally rather than over-committing the cap.
func Partition(budgetW, floorW float64, demand []float64, healthy []bool) []float64 {
	shares := make([]float64, len(demand))
	if budgetW <= 0 {
		return shares
	}
	nHealthy := 0
	sumD := 0.0
	for i, h := range healthy {
		if !h {
			continue
		}
		nHealthy++
		sumD += math.Max(demand[i], 0) + 1
	}
	if nHealthy == 0 {
		return shares
	}
	floor := floorW
	if floor*float64(nHealthy) > budgetW {
		floor = 0
	}
	extra := budgetW - floor*float64(nHealthy)
	for i, h := range healthy {
		if !h {
			continue
		}
		shares[i] = floor + extra*(math.Max(demand[i], 0)+1)/sumD
	}
	return shares
}

// rebalance recomputes the budget partition from the latest load
// snapshot and pushes changed shares to the nodes via POST /v1/cap.
// Shares within 0.25 W of what a node already runs are left alone
// (hysteresis): constant micro-adjustments would churn every node's
// journal for no scheduling effect.
func (c *Coordinator) rebalance(ctx context.Context) {
	c.mu.Lock()
	budget := c.budgetW
	if budget <= 0 {
		c.mu.Unlock()
		return
	}
	demand := make([]float64, len(c.members))
	healthy := make([]bool, len(c.members))
	for i, mb := range c.members {
		demand[i] = float64(mb.queueDepth + mb.placedSincePoll)
		healthy[i] = mb.healthy
	}
	shares := Partition(budget, floorWatts, demand, healthy)
	type push struct {
		mb *member
		w  float64
	}
	var pushes []push
	for i, mb := range c.members {
		mb.shareW = shares[i]
		c.m.capShare.Set(mb.id, shares[i])
		if !healthy[i] {
			continue
		}
		if math.Abs(shares[i]-mb.appliedW) > 0.25 {
			pushes = append(pushes, push{mb, shares[i]})
		}
	}
	c.mu.Unlock()

	for _, p := range pushes {
		if err := c.pushCap(ctx, p.mb, p.w); err != nil {
			c.m.capPushErrors.Inc(p.mb.id)
			continue
		}
		c.mu.Lock()
		p.mb.appliedW = p.w
		c.mu.Unlock()
	}
	c.m.rebalances.Inc()
}

// pushCap applies one node's share through its live cap endpoint.
func (c *Coordinator) pushCap(ctx context.Context, mb *member, w float64) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RebalanceInterval)
	defer cancel()
	rep, err := mb.up.do(ctx, http.MethodPost, "/v1/cap", []byte(fmt.Sprintf(`{"cap_watts": %g}`, w)), 1<<16)
	if err != nil {
		return err
	}
	rep.release()
	if rep.status != http.StatusOK {
		return fmt.Errorf("fleet: node rejected cap %g W: %d %s", w, rep.status, http.StatusText(rep.status))
	}
	return nil
}
