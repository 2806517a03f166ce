package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one /metrics scrape: series (name plus label set, as
// exposed) to value.
type sample map[string]float64

// Series the harness reads. A scrape that lacks one fails the run: a
// silent zero reads like a measurement (BENCH_8's server section was
// all zeros because corund_* was read from a coordinator, which
// exports only fleet_*). Nodes and coordinator are scraped separately.
var (
	nodeSeries = []string{
		"corund_jobs_submitted_total", "corund_jobs_rejected_total",
		"corund_jobs_done_total", "corund_jobs_failed_total",
		"corund_epochs_total", "corund_epoch_latency_seconds_sum",
		"corund_sim_clock_seconds", "corund_throttle_total", "corund_temp_celsius",
		"corund_journal_appends_total", "corund_journal_fsyncs_total",
		"corund_journal_bytes_total", "corund_journal_batches_total",
		"corund_preemptions_total",
	}
	coordSeries = []string{
		"fleet_jobs_rerouted_total", "fleet_proxy_errors_total", "fleet_rebalances_total",
	}
)

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func scrape(hc *http.Client, base string, required []string) (sample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", base, resp.Status)
	}
	s := sample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s/metrics: malformed line %q", base, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %q: %w", base, line, err)
		}
		s[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range required {
		if _, ok := s[name]; !ok {
			return nil, fmt.Errorf("%s/metrics does not export %s", base, name)
		}
	}
	return s, nil
}

func labelled(name, label, value string) string {
	return name + "{" + label + `="` + value + `"}`
}
