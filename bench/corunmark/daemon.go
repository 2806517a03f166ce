package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const readyTimeout = 20 * time.Second

// kernelsPerStart is how often the kernel is timed before each cold
// boot and each restart: half a millisecond beside tens of them.
const kernelsPerStart = 5

// system is the daemon under test: one corund, or nodes behind a
// coordinator, each on its own data directory below root.
type system struct {
	env   *runEnv
	wl    *workloadDef
	root  string
	addrs []string // node addresses, kept across restarts; the coordinator's last
	nodes []*child
	coord *child
}

func nodeID(i int) string { return fmt.Sprintf("n%d", i) }

func (s *system) nodeDir(i int) string { return filepath.Join(s.root, nodeID(i)) }

// newSystem lays out a system below root without starting anything.
func (e *runEnv) newSystem(wl *workloadDef, root string) (*system, error) {
	s := &system{env: e, wl: wl, root: root}
	n := max(wl.fleetNodes, 1)
	s.nodes = make([]*child, n)
	var err error
	if s.addrs, err = freeAddrs(n + 1); err != nil {
		return nil, err
	}
	for i := range s.nodes {
		if err := os.MkdirAll(s.nodeDir(i), 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// startNode execs node i on its data directory; the daemon gets a
// fixed seed, the run's seed shapes only the requests.
func (s *system) startNode(i int) error {
	args := append([]string{}, s.wl.nodeArgs...)
	args = append(args, "-seed", "1", "-data-dir", s.nodeDir(i))
	if s.wl.fleetNodes > 0 {
		args = append(args, "-node-id", nodeID(i))
	}
	c, err := startChild(s.env.corund, s.addrs[i], filepath.Join(s.root, nodeID(i)+".log"), args...)
	if err != nil {
		return err
	}
	s.nodes[i] = c
	return nil
}

// boot starts every child and returns once the entry point is ready:
// the nodes first, then the coordinator, which probes them as it
// starts and so comes up with all of them in rotation.
func (s *system) boot() error {
	for i := range s.nodes {
		if err := s.startNode(i); err != nil {
			return err
		}
	}
	for _, n := range s.nodes {
		if err := n.waitReady(s.env.hc, readyTimeout); err != nil {
			return err
		}
	}
	if s.wl.fleetNodes == 0 {
		return nil
	}
	var members []string
	for i := range s.nodes {
		members = append(members, nodeID(i)+"=http://"+s.addrs[i])
	}
	args := append([]string{"-coordinator", "-nodes", strings.Join(members, ",")}, s.wl.coordArgs...)
	var err error
	if s.coord, err = startChild(s.env.corund, s.addrs[len(s.nodes)], filepath.Join(s.root, "coord.log"), args...); err != nil {
		return err
	}
	if err := s.coord.waitReady(s.env.hc, readyTimeout); err != nil {
		return err
	}
	var ready struct {
		Healthy int `json:"nodes_healthy"`
	}
	if err := getJSON(s.env.hc, s.coord.base+"/readyz", &ready); err != nil {
		return err
	}
	if ready.Healthy != len(s.nodes) {
		return fmt.Errorf("coordinator came up with %d of %d nodes in rotation", ready.Healthy, len(s.nodes))
	}
	return nil
}

func (s *system) entry() string {
	if s.coord != nil {
		return s.coord.base
	}
	return s.nodes[0].base
}

func (s *system) children() []*child {
	var cs []*child
	for _, n := range s.nodes {
		if n != nil {
			cs = append(cs, n)
		}
	}
	if s.coord != nil {
		cs = append(cs, s.coord)
	}
	return cs
}

// newClient opens the closed loop's connection to the entry point.
func (s *system) newClient() *client {
	return &client{hc: newHTTPClient(), base: s.entry()}
}

// cpuSeconds sums the CPU burned so far by every child: the system
// under test without the client.
func (s *system) cpuSeconds() (float64, error) {
	total := 0.0
	for _, c := range s.children() {
		v, err := c.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// stop ends every child, the coordinator first, and sums their peak
// resident sets.
func (s *system) stop(sig syscall.Signal) (rssKB int64, err error) {
	cs := s.children()
	for i := len(cs) - 1; i >= 0; i-- {
		kb, e := cs[i].stop(sig)
		rssKB += kb
		if err == nil {
			err = e
		}
	}
	s.coord = nil
	for i := range s.nodes {
		s.nodes[i] = nil
	}
	return rssKB, err
}

// scrapeNodes scrapes every node, never the coordinator, whose
// /metrics has no corund_* series.
func (s *system) scrapeNodes(extra ...string) ([]sample, error) {
	out := make([]sample, len(s.nodes))
	for i, n := range s.nodes {
		m, err := scrape(s.env.hc, n.base, append(extra, nodeSeries...))
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// tables reads every node's job table.
func (s *system) tables() ([][]jobView, error) {
	out := make([][]jobView, len(s.nodes))
	for i, n := range s.nodes {
		t, err := readTable(s.env.hc, n.base)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

func readTable(hc *http.Client, base string) ([]jobView, error) {
	var out struct {
		Jobs []jobView `json:"jobs"`
	}
	err := getJSON(hc, base+"/v1/jobs", &out)
	return out.Jobs, err
}

// sumDelta is the counter's increase between two scrapes of the
// nodes, summed over the nodes.
func sumDelta(before, after []sample, series string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

// coldBoots times set-up n times into boots: the system started in a
// fresh directory and taken through one Fig. 11 batch.
func (e *runEnv) coldBoots(wl *workloadDef, n int, k *kernel, boots *timedUnits, res *result) error {
	fig11 := fig11Stream()
	for b := 0; b < n; b++ {
		slow := k.slowdown(kernelsPerStart)
		root := filepath.Join(e.runDir, "boot")
		sys, err := e.newSystem(wl, root)
		if err != nil {
			return err
		}
		start := time.Now()
		err = sys.boot()
		var took float64
		if err == nil {
			st, _ := sys.newClient().run(fig11, len(fig11), nil)
			took = time.Since(start).Seconds()
			res.count(st)
		}
		_, _ = sys.stop(syscall.SIGKILL)
		if err != nil {
			return err
		}
		boots.add(took, slow)
		if err := os.RemoveAll(root); err != nil {
			return err
		}
	}
	return nil
}

// runDaemon measures one daemon workload.
func (e *runEnv) runDaemon(wl *workloadDef) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	warmup := genStream(rng, scaled(wl.warmupJobs, e.seconds, wl.window, wl.window), wl)
	segJobs := scaled(wl.jobsPerSegment, e.seconds, wl.window, wl.window)
	window := genStream(rng, segments*segJobs, wl)

	sys, err := e.newSystem(wl, filepath.Join(e.runDir, "main"))
	if err != nil {
		return nil, err
	}
	defer func() { _, _ = sys.stop(syscall.SIGKILL) }()
	if err := sys.boot(); err != nil {
		return nil, err
	}
	c := sys.newClient()
	c.kernel = newKernel()

	// Warm-up, with the crash smoke in the middle of it.
	half := len(warmup) / 2 / wl.window * wl.window
	st, _ := c.run(warmup[:half], wl.window, nil)
	res.count(st)
	if wl.crashSmoke {
		lost, err := e.crashSmoke(sys, c, genStream(rng, wl.window, wl), res)
		if err != nil {
			return nil, err
		}
		res.layer["journal.crash_lost_acks"] = float64(lost)
		if lost != 0 {
			res.problem("crash smoke: %d acked jobs lost across SIGKILL and restart", lost)
		}
	}
	st, _ = c.run(warmup[half:], wl.window, nil)
	res.count(st)

	// The measured window: fixed-work segments, scraped at each edge.
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	all := &loopStats{}
	var seg segSeries
	var traced, untraced []float64
	var maxTemp float64
	first, err := sys.scrapeNodes()
	if err != nil {
		return nil, err
	}
	var coord0 sample
	if sys.coord != nil {
		if coord0, err = scrape(e.hc, sys.coord.base, coordSeries); err != nil {
			return nil, err
		}
	}
	prev := first
	var cold timedUnits
	k := newKernel()
	for s := 0; ; s++ {
		// Cold boots, beside the idle system, at every edge of the window.
		if err := e.coldBoots(wl, shareAt(repeats(boots, e.seconds), segments+1, s), k, &cold, res); err != nil {
			return nil, err
		}
		if s == segments {
			break
		}
		cpu0, err := sys.cpuSeconds()
		if err != nil {
			return nil, err
		}
		// In a traced run the odd segments record spans and the even
		// ones do not; their throughputs give the tracing overhead.
		segTr := tr
		if s%2 == 0 {
			segTr = nil
		}
		st, wall := c.run(window[s*segJobs:(s+1)*segJobs], wl.window, segTr)
		cpu1, err := sys.cpuSeconds()
		if err != nil {
			return nil, err
		}
		var need []string
		if s == segments-1 {
			need = tenantSeries(wl) // by now every tenant has been admitted
		}
		cur, err := sys.scrapeNodes(need...)
		if err != nil {
			return nil, err
		}
		res.count(st)
		all.merge(st)
		done := float64(len(st.tripMs))
		if done == 0 {
			return nil, fmt.Errorf("segment %d completed no job: %v", s, st.firstErr)
		}
		rate := done / wall.Seconds()
		sim := sumDelta(prev, cur, "corund_sim_clock_seconds")
		if sim <= 0 {
			return nil, fmt.Errorf("segment %d: the simulated clock moved by %v s", s, sim)
		}
		seg.addMeasured(rate, median(st.tripMs), percentile(st.tripMs, 95), 1000*(cpu1-cpu0)/done,
			100*sumDelta(prev, cur, "corund_epoch_latency_seconds_sum")/sim, slowdown(st.kernelMs))
		if segTr != nil {
			traced = append(traced, rate)
		} else {
			untraced = append(untraced, rate)
		}
		for _, m := range cur {
			maxTemp = max(maxTemp, m["corund_temp_celsius"])
		}
		prev = cur
	}
	last := prev
	seg.report(res, len(all.tripMs)/segments)
	res.setTimed("setup_s", median(cold.ref), median(cold.measured), len(cold.ref))

	L := res.layer
	freeLayerMetrics(wl, res, all, first, last)
	L["sim.max_temp_c"] = maxTemp
	if sys.coord != nil {
		if err := e.fleetLayerMetrics(sys, coord0, L); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		L["harness.trace_overhead_pct"] = 100 * (1 - median(traced)/median(untraced))
		self := selfTimes(all.spans)
		L["client.post_ms"] = median(self["client.post"])
		L["client.wait_ms"] = median(self["client.wait"])
		L["client.poll_ms"] = median(self["client.poll"])
		if sys.coord != nil {
			hop, err := e.hopProbe(sys, genStream(rng, 2*scaled(hopPairs, e.seconds, 1, 10), wl), res)
			if err != nil {
				return nil, err
			}
			L["fleet.hop_p50_us"] = hop
		}
	}

	// The tables before any restart: ground truth for the restart
	// check, and the epochs the schedule quality is read from.
	before, err := sys.tables()
	if err != nil {
		return nil, err
	}
	measured := make(map[string]bool, len(all.acked))
	for _, id := range all.acked {
		measured[id] = true
	}
	rssKB, err := sys.stop(syscall.SIGTERM)
	if err != nil {
		return nil, err
	}
	L["runtime.peak_rss_mb"] = float64(rssKB) / 1024

	recoverS, measuredS, recovered, err := e.restartCheck(sys, before, res)
	if err != nil {
		return nil, err
	}
	res.setTimed("recover_s", recoverS, measuredS, repeats(restarts, e.seconds))
	L["journal.recovered_jobs"] = float64(recovered)
	L["journal.recover_us_per_job"] = 1e6 * measuredS / float64(recovered)

	q, err := scheduleQuality(before, measured)
	if err != nil {
		return nil, err
	}
	res.set("makespan_vs_bound", q.ratio, q.epochs)

	if tr != nil {
		spans, err := e.stageReplay(wl, window, q.batches, res)
		if err != nil {
			return nil, err
		}
		if err := writeTrace(e.tracePath(wl), all.spans, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func tenantSeries(wl *workloadDef) []string {
	var series []string
	for _, t := range wl.tenants {
		series = append(series, labelled("corund_tenant_admitted_total", "tenant", t.name))
	}
	return series
}

// freeLayerMetrics are the per-layer numbers that cost nothing: the
// client's own counters over the window and the node scrapes at its
// two ends.
func freeLayerMetrics(wl *workloadDef, res *result, all *loopStats, first, last []sample) {
	jobs := float64(len(all.tripMs))
	epochs := sumDelta(first, last, "corund_epochs_total")
	appends := sumDelta(first, last, "corund_journal_appends_total")
	L := res.layer
	L["server.ack_p50_ms"] = median(all.ackMs)
	L["server.ack_p99_ms"] = percentile(all.ackMs, 99)
	L["server.status_p50_us"] = median(all.statusUs)
	L["server.polls_per_job"] = float64(all.polls) / jobs
	L["server.rejected"] = sumDelta(first, last, "corund_jobs_rejected_total")
	L["client.trip_p99_ms"] = percentile(all.tripMs, 99)
	L["server.jobs_per_epoch"] = sumDelta(first, last, "corund_jobs_done_total") / epochs
	L["server.epoch_wall_ms"] = 1000 * sumDelta(first, last, "corund_epoch_latency_seconds_sum") / epochs
	L["server.epochs"] = epochs
	L["journal.fsyncs_per_job"] = sumDelta(first, last, "corund_journal_fsyncs_total") / jobs
	L["journal.records_per_commit"] = appends / sumDelta(first, last, "corund_journal_batches_total")
	L["journal.appends_per_job"] = appends / jobs
	L["journal.bytes_per_job"] = sumDelta(first, last, "corund_journal_bytes_total") / jobs
	L["admission.preemptions_per_kjob"] = 1000 * sumDelta(first, last, "corund_preemptions_total") / jobs
	admitted := sumDelta(first, last, "corund_jobs_submitted_total")
	for i, series := range tenantSeries(wl) {
		L["admission.share_pct."+wl.tenants[i].name] = 100 * sumDelta(first, last, series) / admitted
	}
	L["sim.throttles_per_epoch"] = sumDelta(first, last, "corund_throttle_total") / epochs
	L["sim.makespan_sum_s"] = sumDelta(first, last, "corund_sim_clock_seconds")
	if failed := sumDelta(first, last, "corund_jobs_failed_total"); failed != 0 {
		res.problem("the daemon counted %v failed jobs", failed)
	}
}

// fleetLayerMetrics are the coordinator's own counters over the
// window, from its fleet_* series.
func (e *runEnv) fleetLayerMetrics(sys *system, coord0 sample, L map[string]float64) error {
	var routed []string
	for i := range sys.nodes {
		routed = append(routed, labelled("fleet_jobs_routed_total", "node", nodeID(i)))
	}
	coord1, err := scrape(e.hc, sys.coord.base, append(routed, coordSeries...))
	if err != nil {
		return err
	}
	var most, total float64
	for _, series := range routed {
		d := coord1[series] - coord0[series]
		most = max(most, d)
		total += d
	}
	L["fleet.routed_max_share_pct"] = 100 * most / total
	L["fleet.reroutes"] = coord1["fleet_jobs_rerouted_total"] - coord0["fleet_jobs_rerouted_total"]
	L["fleet.proxy_errors"] = coord1["fleet_proxy_errors_total"] - coord0["fleet_proxy_errors_total"]
	L["fleet.rebalances"] = coord1["fleet_rebalances_total"] - coord0["fleet_rebalances_total"]
	return nil
}

// crashSmoke SIGKILLs the daemon with a window of acked jobs in
// flight, restarts it on the same directory and counts the acked jobs
// that do not come back and finish. The OS page cache survives a
// process kill, so this checks journal replay, not the device.
func (e *runEnv) crashSmoke(sys *system, c *client, reqs []jobReq, res *result) (lost int, err error) {
	posted := &loopStats{}
	open := c.submit(reqs, posted, nil)
	if _, err := sys.nodes[0].stop(syscall.SIGKILL); err != nil {
		return 0, err
	}
	c.hc.CloseIdleConnections()
	if err := sys.startNode(0); err != nil {
		return 0, err
	}
	if err := sys.nodes[0].waitReady(e.hc, readyTimeout); err != nil {
		return 0, err
	}
	seen := &loopStats{}
	c.await(open, seen, nil)
	lost = seen.failed
	posted.merge(seen)
	res.count(posted)
	return lost, nil
}

type tableRow struct {
	state    string
	finished float64
}

func tableRows(t []jobView) map[string]tableRow {
	rows := make(map[string]tableRow, len(t))
	for _, j := range t {
		rows[j.ID] = tableRow{j.State, j.FinishedSimS}
	}
	return rows
}

// restartCheck restarts each node on the run's data directory several
// times. One restart is timed from exec until /readyz answers 200 and
// the node's last job reads done; the reported time is the median
// restart, summed over the nodes, in reference time and as measured.
// After each restart the job table must equal the one from before the
// first.
func (e *runEnv) restartCheck(sys *system, before [][]jobView, res *result) (recoverS, measuredS float64, recovered int, err error) {
	for i := range sys.nodes {
		want := tableRows(before[i])
		if len(before[i]) == 0 {
			return 0, 0, 0, fmt.Errorf("node %s served no job", nodeID(i))
		}
		lastID := before[i][len(before[i])-1].ID
		probe := &client{hc: e.hc}
		var times timedUnits
		k := newKernel()
		for r := 0; r < repeats(restarts, e.seconds); r++ {
			slow := k.slowdown(kernelsPerStart)
			start := time.Now()
			if err := sys.startNode(i); err != nil {
				return 0, 0, 0, err
			}
			n := sys.nodes[i]
			if err := n.waitReady(e.hc, readyTimeout); err != nil {
				return 0, 0, 0, err
			}
			probe.base = n.base
			state, err := probe.status(lastID)
			took := time.Since(start).Seconds()
			if err != nil || state != "done" {
				res.problem("restart %d of %s: job %s reads %q (%v), want done", r, nodeID(i), lastID, state, err)
			}
			after, err := readTable(e.hc, n.base)
			if err != nil {
				return 0, 0, 0, err
			}
			if diff := diffTables(want, tableRows(after)); diff != "" {
				res.problem("restart %d of %s: job table changed: %s", r, nodeID(i), diff)
			}
			if _, err := n.stop(syscall.SIGTERM); err != nil {
				return 0, 0, 0, err
			}
			sys.nodes[i] = nil
			times.add(took, slow)
		}
		recoverS += median(times.ref)
		measuredS += median(times.measured)
		recovered += len(want)
	}
	return recoverS, measuredS, recovered, nil
}

func diffTables(want, got map[string]tableRow) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d jobs before, %d after", len(want), len(got))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			return fmt.Sprintf("job %s was %+v, is %+v (present: %v)", id, w, g, ok)
		}
	}
	return ""
}

// hopPairs is how many coordinator/direct ack pairs the hop probe
// times: enough for a steady median, a fraction of a second of work.
const hopPairs = 300

// hopProbe alternates single submissions through the coordinator and
// straight to node n0 and returns the difference of the two median
// ack times in microseconds: what the proxy hop and placement cost.
func (e *runEnv) hopProbe(sys *system, reqs []jobReq, res *result) (float64, error) {
	via := &client{hc: newHTTPClient(), base: sys.coord.base}
	direct := &client{hc: newHTTPClient(), base: sys.nodes[0].base}
	var viaSt, directSt loopStats
	for i := 0; i+1 < len(reqs); i += 2 {
		via.await(via.submit(reqs[i:i+1], &viaSt, nil), &viaSt, nil)
		direct.await(direct.submit(reqs[i+1:i+2], &directSt, nil), &directSt, nil)
	}
	res.count(&viaSt)
	res.count(&directSt)
	if viaSt.firstErr != nil || directSt.firstErr != nil {
		return 0, fmt.Errorf("hop probe: %v / %v", viaSt.firstErr, directSt.firstErr)
	}
	return 1000 * (median(viaSt.ackMs) - median(directSt.ackMs)), nil
}
