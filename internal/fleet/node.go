package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"corun/internal/server"
)

// member is the coordinator's live view of one corund node. All
// mutable fields are guarded by the Coordinator mutex.
type member struct {
	id  string
	url string
	up  *upstream

	healthy bool
	status  string // last reported /readyz status ("ready", "degraded", ...)
	lastErr string
	fails   int // consecutive probe transport failures

	// Load signal for placement: the queue depth the node last
	// reported, plus everything routed to it since that report (the
	// poll-interval blind spot). biasGPU is the device-preference mix
	// of the pending backlog estimate; it resets when the node reports
	// an empty queue.
	queueDepth      int
	placedSincePoll int
	biasGPU         float64

	// Power bookkeeping: the cap the node reported on /readyz, the
	// share the partitioner last assigned, and the share last actually
	// applied (hysteresis reference).
	reportedCapW float64
	shareW       float64
	appliedW     float64

	// Routing counters (mirrored to /metrics and GET /v1/nodes).
	routed    uint64
	placedCPU uint64
	placedGPU uint64
}

// probeAll refreshes every member's health and load snapshot in
// parallel and updates the fleet gauges.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, mb := range c.members {
		wg.Add(1)
		go func(mb *member) {
			defer wg.Done()
			c.probe(ctx, mb)
		}(mb)
	}
	wg.Wait()

	c.mu.Lock()
	healthy := 0
	for _, mb := range c.members {
		if mb.healthy {
			healthy++
		}
		c.m.queueDepth.Set(mb.id, float64(mb.queueDepth+mb.placedSincePoll))
		h := 0.0
		if mb.healthy {
			h = 1
		}
		c.m.nodeUp.Set(mb.id, h)
	}
	c.mu.Unlock()
	c.m.healthy.Set(float64(healthy))
}

// probe hits one node's /readyz. A well-formed answer takes effect
// immediately (ready → healthy, draining/degraded/starting →
// unhealthy); transport errors flip the node only after
// healthFailures consecutive misses, so one dropped packet does not
// eject a serving node. An answer claiming a different node identity
// is a mis-wiring (two fleets sharing a port, a stale DNS entry) and
// keeps the node out of rotation.
func (c *Coordinator) probe(ctx context.Context, mb *member) {
	st, err := c.fetchReady(ctx, mb)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		mb.fails++
		mb.lastErr = err.Error()
		c.m.probeFailures.Inc(mb.id)
		if mb.fails >= healthFailures {
			mb.healthy = false
			mb.status = "unreachable"
		}
		return
	}
	mb.fails = 0
	mb.status = st.Status
	mb.queueDepth = st.QueueDepth
	mb.placedSincePoll = 0
	if st.QueueDepth == 0 {
		mb.biasGPU = 0
	}
	mb.reportedCapW = st.CapWatts
	switch {
	case st.Node != mb.id:
		mb.healthy = false
		mb.lastErr = fmt.Sprintf("node identity mismatch: probe of %s answered as %q", mb.id, st.Node)
		mb.status = "misconfigured"
		c.m.probeFailures.Inc(mb.id)
	case st.Status == "ready":
		mb.healthy = true
		mb.lastErr = ""
	default:
		mb.healthy = false
		mb.lastErr = ""
	}
}

// fetchReady performs the /readyz request and decodes the body
// regardless of status code — a 503 "draining" answer still carries
// the node's identity and stats.
func (c *Coordinator) fetchReady(ctx context.Context, mb *member) (server.ReadyStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.HealthInterval*2+time.Second)
	defer cancel()
	rep, err := mb.up.do(ctx, http.MethodGet, "/readyz", nil, 1<<16)
	if err != nil {
		return server.ReadyStatus{}, err
	}
	defer rep.release()
	var st server.ReadyStatus
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return server.ReadyStatus{}, fmt.Errorf("bad /readyz body: %w", err)
	}
	if st.Status == "" {
		return server.ReadyStatus{}, fmt.Errorf("bad /readyz body: no status")
	}
	return st, nil
}

// suspend marks a member unhealthy after a routing failure (transport
// error or 5xx on a forwarded request) without waiting for the next
// probe round, so the very next placement already avoids it. The
// health loop re-admits it when /readyz answers ready again.
func (c *Coordinator) suspend(mb *member, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mb.healthy = false
	mb.status = "unreachable"
	if err != nil {
		mb.lastErr = err.Error()
	}
	c.m.nodeUp.Set(mb.id, 0)
}
