package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"

	"corun/internal/cluster"
	"corun/internal/policy"
	"corun/internal/server"
	"corun/internal/workload"
)

// Handler returns the coordinator's HTTP API — the same /v1/* surface
// a single corund daemon speaks, served fleet-wide:
//
//	POST /v1/jobs      place and forward a submission (retry-or-reroute)
//	GET  /v1/jobs      fan-out merge of every node's job table
//	GET  /v1/jobs/{id} proxied to the owning shard (ID-prefix routing)
//	GET  /v1/plan      aggregated per-node plans + fleet power summary
//	GET  /v1/cap       the fleet-wide power budget
//	POST /v1/cap       change the budget and repartition immediately
//	GET  /v1/policies  policy registry (proxied from a healthy node)
//	POST /v1/policy    broadcast a policy change to every healthy node
//	GET  /v1/nodes     per-node fleet state (health, shares, routing)
//	GET  /healthz      coordinator process liveness
//	GET  /readyz       200 while at least one node is in rotation
//	GET  /metrics      fleet_* Prometheus series
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/plan", c.handlePlan)
	mux.HandleFunc("GET /v1/cap", c.handleGetCap)
	mux.HandleFunc("POST /v1/cap", c.handleSetCap)
	mux.HandleFunc("GET /v1/policies", c.handlePolicies)
	mux.HandleFunc("POST /v1/policy", c.handleSetPolicy)
	mux.HandleFunc("GET /v1/nodes", c.handleNodes)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.Handle("GET /metrics", c.m.reg.Handler())
	if c.cfg.RequestTimeout > 0 {
		// The deadline rides on the request context, which bounds every
		// upstream call; a handler that runs out of it writes the 503
		// itself (see requestOver), on the goroutine it already has. The
		// wrapper is the node's: it bounds reading the body as well.
		return server.Deadline(mux, c.cfg.RequestTimeout)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

var errDeadline = errors.New("fleet: request deadline exceeded")

// requestOver reports whether r's own context has ended — the client
// hung up or the request deadline passed. An upstream failure is then
// the caller's, not the node's: nothing is suspended or counted. A
// deadline still gets its JSON 503; a client that hung up reads
// nothing.
func requestOver(w http.ResponseWriter, r *http.Request) bool {
	err := r.Context().Err()
	if errors.Is(err, context.DeadlineExceeded) {
		writeDeadline(w)
	}
	return err != nil
}

// writeDeadline answers a request that ran out of its deadline, and
// closes the connection after it: the read deadline may have ended the
// connection's context along with the request's.
func writeDeadline(w http.ResponseWriter) {
	w.Header().Set("Connection", "close")
	writeErr(w, http.StatusServiceUnavailable, errDeadline)
}

// relay writes a node's reply through unchanged: status, the named
// headers, body.
func relay(w http.ResponseWriter, rep reply, keys ...string) {
	for _, k := range keys {
		if v := rep.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
}

// place runs the placer over the current fleet snapshot, excluding
// nodes already tried this submission, and optimistically folds the
// job into the winner's load estimate (rolled back by unplace if the
// forward fails) so concurrent submissions see each other.
func (c *Coordinator) place(hint cluster.JobHint, tried map[*member]bool) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]cluster.NodeState, len(c.members))
	for i, mb := range c.members {
		headroom := mb.reportedCapW
		if c.budgetW > 0 {
			headroom = mb.shareW
		}
		nodes[i] = cluster.NodeState{
			Load:      float64(mb.queueDepth + mb.placedSincePoll),
			BiasGPU:   mb.biasGPU,
			HeadroomW: headroom,
			Unhealthy: !mb.healthy || tried[mb],
		}
	}
	idx, err := c.placer.Pick(hint, nodes)
	if err != nil {
		return nil
	}
	mb := c.members[idx]
	mb.placedSincePoll++
	mb.biasGPU += hint.BiasGPU()
	return mb
}

// unplace rolls back place's optimistic accounting after a submission
// was not accepted by the node.
func (c *Coordinator) unplace(mb *member, hint cluster.JobHint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mb.placedSincePoll > 0 {
		mb.placedSincePoll--
	}
	mb.biasGPU -= hint.BiasGPU()
}

// recordPlacement finalizes the routing counters once a node
// acknowledged the job.
func (c *Coordinator) recordPlacement(mb *member, hint cluster.JobHint) {
	c.mu.Lock()
	mb.routed++
	if hint.BiasGPU() > 0 {
		mb.placedGPU++
	} else {
		mb.placedCPU++
	}
	c.mu.Unlock()
	c.m.routed.Inc(mb.id)
	if hint.BiasGPU() > 0 {
		c.m.placedGPU.Inc(mb.id)
	} else {
		c.m.placedCPU.Inc(mb.id)
	}
}

// handleSubmit places a job and forwards it. Transport errors and
// 5xxs from the chosen node suspend it and reroute to the next-best
// healthy node; a node's own 4xx verdicts (bad spec, 429 queue-full)
// pass through — rerouting a full queue would defeat the node's
// admission control, and the coordinator's Retry-After passthrough
// keeps the client's backoff honest.
//
// The body is validated here and forwarded as received: the node
// decodes the same bytes with the same decoder.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	in := getBuf()
	defer putBuf(in)
	var err error
	in.b, _, err = readBody(http.MaxBytesReader(w, r.Body, 1<<20), in.b[:0], 1<<20)
	if isTimeout(err) {
		writeDeadline(w)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := workload.DecodeJobSpecBytes(in.b)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	hint, err := c.hintFor(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	tried := make(map[*member]bool)
	for {
		mb := c.place(hint, tried)
		if mb == nil {
			break
		}
		rep, err := mb.up.do(r.Context(), http.MethodPost, "/v1/jobs", in.b, 1<<20)
		if err == nil && rep.status >= 500 {
			rep.release()
			err = fmt.Errorf("fleet: node %s: submit failed: %d %s", mb.id, rep.status, http.StatusText(rep.status))
		}
		if err != nil {
			c.unplace(mb, hint)
			if requestOver(w, r) {
				return
			}
			c.suspend(mb, err)
			tried[mb] = true
			c.m.rerouted.Inc()
			continue
		}
		if rep.status == http.StatusAccepted {
			c.recordPlacement(mb, hint)
		} else {
			c.unplace(mb, hint)
		}
		relay(w, rep, "Location", "Retry-After", "Content-Type")
		rep.release()
		return
	}
	c.m.routingFailed.Inc()
	writeErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: no healthy node accepted the job"))
}

// ownerOf routes a job ID to its shard by longest node-ID prefix
// match (IDs are minted as "<node-id>-job-%06d" by the owning node).
// Longest-prefix matters because node IDs may nest: with nodes "a"
// and "a-b", job "a-b-job-000001" belongs to "a-b".
func (c *Coordinator) ownerOf(id string) *member {
	var best *member
	for _, mb := range c.members {
		if len(id) > len(mb.id)+1 && id[:len(mb.id)] == mb.id && id[len(mb.id)] == '-' {
			if best == nil || len(mb.id) > len(best.id) {
				best = mb
			}
		}
	}
	return best
}

// handleJob proxies a job lookup to its owning shard. The proxy is
// attempted even when the shard is marked unhealthy — a draining or
// flapping node can still answer reads — and only a transport failure
// yields the shard-unavailable 503.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	mb := c.ownerOf(id)
	if mb == nil {
		writeErr(w, http.StatusNotFound,
			fmt.Errorf("fleet: unknown job %q (no node owns this ID prefix)", id))
		return
	}
	rep, err := mb.up.do(r.Context(), http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, 1<<20)
	if err != nil {
		if requestOver(w, r) {
			return
		}
		c.m.proxyErrors.Inc()
		c.suspend(mb, err)
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("fleet: shard %s unavailable: %v", mb.id, err))
		return
	}
	relay(w, rep, "Retry-After", "Content-Type")
	rep.release()
}

// getAll GETs path from every member at once. reps[i] holds a reply
// (to be released) where errs[i] is nil.
func (c *Coordinator) getAll(ctx context.Context, path string, limit int) (reps []reply, errs []error) {
	reps = make([]reply, len(c.members))
	errs = make([]error, len(c.members))
	var wg sync.WaitGroup
	for i, mb := range c.members {
		wg.Add(1)
		go func(i int, mb *member) {
			defer wg.Done()
			reps[i], errs[i] = mb.up.do(ctx, http.MethodGet, path, nil, limit)
		}(i, mb)
	}
	wg.Wait()
	return reps, errs
}

func releaseAll(reps []reply) {
	for _, rep := range reps {
		rep.release()
	}
}

// handleJobs merges every node's job table. Unreachable nodes are
// reported by ID in "unavailable" rather than failing the whole list:
// a partial fleet view with provenance beats a 503.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	reps, errs := c.getAll(r.Context(), "/v1/jobs", 64<<20)
	defer releaseAll(reps)
	if requestOver(w, r) {
		return
	}
	merged := struct {
		Jobs        []json.RawMessage `json:"jobs"`
		Unavailable []string          `json:"unavailable,omitempty"`
	}{Jobs: []json.RawMessage{}}
	for i, rep := range reps {
		var out struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if errs[i] != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &out) != nil {
			c.m.proxyErrors.Inc()
			merged.Unavailable = append(merged.Unavailable, c.members[i].id)
			continue
		}
		merged.Jobs = append(merged.Jobs, out.Jobs...)
	}
	writeJSON(w, http.StatusOK, merged)
}

// planNode is one node's slice of the aggregated plan view.
type planNode struct {
	Healthy        bool            `json:"healthy"`
	CapShareWatts  float64         `json:"cap_share_watts,omitempty"`
	Plan           json.RawMessage `json:"plan,omitempty"`
	AvgPowerWatts  float64         `json:"avg_power_watts,omitempty"`
	CapWatts       float64         `json:"cap_watts,omitempty"`
	CapUtilization float64         `json:"cap_utilization,omitempty"`
}

// handlePlan serves the fleet-wide plan aggregate: the budget, a
// power roll-up, and each node's latest epoch plan verbatim, fetched
// from every node on each request.
func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	reps, errs := c.getAll(r.Context(), "/v1/plan", 4<<20)
	defer releaseAll(reps)
	if requestOver(w, r) {
		return
	}
	plans := make([]json.RawMessage, len(c.members))
	for i, rep := range reps {
		switch {
		case errs[i] != nil:
			c.m.proxyErrors.Inc()
		case rep.status == http.StatusOK:
			plans[i] = rep.body
		case rep.status != http.StatusNotFound:
			// 404 just means no epoch planned yet; not an error.
			c.m.proxyErrors.Inc()
		}
	}

	c.mu.Lock()
	view := struct {
		BudgetWatts   float64             `json:"budget_watts"`
		NodesTotal    int                 `json:"nodes_total"`
		NodesHealthy  int                 `json:"nodes_healthy"`
		AvgPowerWatts float64             `json:"avg_power_watts"`
		Nodes         map[string]planNode `json:"nodes"`
	}{
		BudgetWatts: c.budgetW,
		NodesTotal:  len(c.members),
		Nodes:       make(map[string]planNode, len(c.members)),
	}
	for i, mb := range c.members {
		if mb.healthy {
			view.NodesHealthy++
		}
		pn := planNode{Healthy: mb.healthy, CapShareWatts: mb.shareW}
		if plans[i] != nil {
			pn.Plan = plans[i]
			var summary struct {
				AvgPowerWatts  float64 `json:"avg_power_watts"`
				CapWatts       float64 `json:"cap_watts"`
				CapUtilization float64 `json:"cap_utilization"`
			}
			if json.Unmarshal(plans[i], &summary) == nil {
				pn.AvgPowerWatts = summary.AvgPowerWatts
				pn.CapWatts = summary.CapWatts
				pn.CapUtilization = summary.CapUtilization
				view.AvgPowerWatts += summary.AvgPowerWatts
			}
		}
		view.Nodes[mb.id] = pn
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (c *Coordinator) handleGetCap(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]float64{"cap_watts": c.BudgetW()})
}

func (c *Coordinator) handleSetCap(w http.ResponseWriter, r *http.Request) {
	var req struct {
		CapWatts *float64 `json:"cap_watts"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if isTimeout(err) {
		writeDeadline(w)
		return
	}
	if err != nil || req.CapWatts == nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf(`fleet: body must be {"cap_watts": <number>} (the fleet-wide budget; 0 = unmanaged)`))
		return
	}
	if err := c.SetBudgetW(r.Context(), *req.CapWatts); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if requestOver(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"cap_watts": c.BudgetW()})
}

// handlePolicies proxies the registry listing from any healthy node —
// the registry is compiled into the binary, so every node answers the
// same.
func (c *Coordinator) handlePolicies(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	var target *member
	for _, mb := range c.members {
		if mb.healthy {
			target = mb
			break
		}
	}
	c.mu.Unlock()
	if target == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: no healthy node"))
		return
	}
	rep, err := target.up.do(r.Context(), http.MethodGet, "/v1/policies", nil, 1<<20)
	if err != nil {
		if requestOver(w, r) {
			return
		}
		c.m.proxyErrors.Inc()
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: node %s unavailable: %v", target.id, err))
		return
	}
	relay(w, rep, "Content-Type")
	rep.release()
}

// handleSetPolicy broadcasts a policy change to every healthy node.
// Partial application is reported per node with a 502: the caller
// must know the fleet is split-brained on policy until the stragglers
// are retried.
func (c *Coordinator) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Policy string `json:"policy"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if isTimeout(err) {
		writeDeadline(w)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf(`fleet: body must be {"policy": "<name>"}; GET /v1/policies lists the registered names`))
		return
	}
	canonical, err := policy.Canonical(req.Policy)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	var targets []*member
	for _, mb := range c.members {
		if mb.healthy {
			targets = append(targets, mb)
		}
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: no healthy node"))
		return
	}
	payload := []byte(fmt.Sprintf(`{"policy": %q}`, canonical))
	applied := []string{}
	failed := map[string]string{}
	for _, mb := range targets {
		rep, err := mb.up.do(r.Context(), http.MethodPost, "/v1/policy", payload, 1<<16)
		if err != nil {
			if requestOver(w, r) {
				return
			}
			failed[mb.id] = err.Error()
			c.suspend(mb, err)
			continue
		}
		if rep.status != http.StatusOK {
			failed[mb.id] = fmt.Sprintf("%d %s: %s", rep.status, http.StatusText(rep.status), bytes.TrimSpace(rep.body))
		} else {
			applied = append(applied, mb.id)
		}
		rep.release()
	}
	status := http.StatusOK
	if len(failed) > 0 {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, map[string]any{
		"policy":  canonical,
		"applied": applied,
		"failed":  failed,
	})
}

// nodeView is one row of GET /v1/nodes.
type nodeView struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	Healthy       bool    `json:"healthy"`
	Status        string  `json:"status"`
	QueueDepth    int     `json:"queue_depth"`
	CapShareWatts float64 `json:"cap_share_watts"`
	CapWatts      float64 `json:"cap_watts"`
	Routed        uint64  `json:"routed"`
	PlacedCPUPref uint64  `json:"placed_cpu_pref"`
	PlacedGPUPref uint64  `json:"placed_gpu_pref"`
	LastError     string  `json:"last_error,omitempty"`
}

// handleNodes reports the coordinator's live member table — the
// operator's fleet dashboard, with per-node placement counts.
func (c *Coordinator) handleNodes(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	views := make([]nodeView, 0, len(c.members))
	for _, mb := range c.members {
		views = append(views, nodeView{
			ID:            mb.id,
			URL:           mb.url,
			Healthy:       mb.healthy,
			Status:        mb.status,
			QueueDepth:    mb.queueDepth + mb.placedSincePoll,
			CapShareWatts: mb.shareW,
			CapWatts:      mb.reportedCapW,
			Routed:        mb.routed,
			PlacedCPUPref: mb.placedCPU,
			PlacedGPUPref: mb.placedGPU,
			LastError:     mb.lastErr,
		})
	}
	c.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{
		"balancer": c.placer.Strategy().String(),
		"nodes":    views,
	})
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the fleet readiness gate: 200 while at least one
// node is in rotation, with every node's last probe status attached.
func (c *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	nodes := make(map[string]string, len(c.members))
	healthy := 0
	for _, mb := range c.members {
		st := mb.status
		if st == "" {
			st = "unknown"
		}
		nodes[mb.id] = st
		if mb.healthy {
			healthy++
		}
	}
	c.mu.Unlock()
	body := map[string]any{
		"status":        "ready",
		"nodes_healthy": healthy,
		"nodes":         nodes,
	}
	if healthy == 0 {
		body["status"] = "unavailable"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
