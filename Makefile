GO ?= go
GOFMT ?= gofmt
BENCHTIME ?= 1s
FUZZTIME ?= 5s

.PHONY: all build test race vet cross fmtcheck bench fuzz verify size corund clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# cross builds the module for the other side of internal/journal's
# build-tagged pair (sync_linux.go / sync_other.go) and vets that tag
# set too, so a Linux-only syscall cannot leak out of the tagged file.
# Both targets compile offline with the stock toolchain.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...

# fmtcheck fails (listing the offenders) if any file needs gofmt.
fmtcheck:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench runs the root package's benchmarks (BenchmarkPlanEpochFig11, a
# whole facade epoch warm and cold, and the paper's tables and figures),
# the predicted-timeline walk of the planner core
# (BenchmarkPredictedMakespan), the simulator alone (BenchmarkRun: the
# executor's share of an epoch, apart from the planner's; its /machine
# case runs epochs back to back on one sim.Machine, the heatsink carried
# from run to run) and BenchmarkRunFig11 (root: a warm Fig. 11 plan's
# run under the plan governor, the sim.execute stage of a warm epoch),
# BenchmarkBiasedAdjust (the reactive governor's Adjust alone, one call
# per op over a fixed grid of views, both biases, with and without plane
# caps), the planning
# benchmarks of the policy layer, the append/recovery benchmarks of the
# state journal, the handler and durable-submit benchmarks of the
# daemon, and the fleet coordinator's hop — a submit and a status read
# through it to in-process nodes (no tests, with allocation stats).
# BENCHTIME=1x gives a quick smoke run.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) \
		. ./internal/core/ ./internal/sim/ ./internal/policy/ ./internal/journal/ ./internal/server/ \
		./internal/fleet/

# fuzz smoke-runs every fuzz target for FUZZTIME each (go test takes
# one -fuzz pattern per invocation, hence one line per target).
# FuzzAppendRecord holds the journal's record encoder to json.Marshal
# of the records themselves; its job encoding is also every HTTP job
# body the daemon serves. FuzzSnapshotSplit holds the snapshot decoded
# in pieces, as recovery splits it across cores, to the single pass.
# FuzzPairChoiceBound holds the planner's bounded frequency traversal
# and partition test to exhaustive scans. FuzzQuietTicks holds the
# simulator's event loop, which skips the calls a quiet tick need not
# make, to the same loop asking at every tick, bit for bit.
# FuzzBiasedAdjust holds the reactive governor to its policy: levels in
# range, a plane overdraw lowers only its device one level, no raise over
# the package cap, and a raise moves one device one level, the preferred
# one first.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run='^$$' -fuzz=FuzzDecodePayload -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotSplit -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run='^$$' -fuzz=FuzzAppendRecord -fuzztime=$(FUZZTIME) ./internal/journal/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/policy/
	$(GO) test -run='^$$' -fuzz=FuzzPairTimes -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzPairChoiceBound -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzQuietTicks -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzBiasedAdjust -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzArbitrate -fuzztime=$(FUZZTIME) ./internal/memsys/
	$(GO) test -run='^$$' -fuzz=FuzzJobSpecJSON -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzAdmissionSpec -fuzztime=$(FUZZTIME) ./internal/admission/
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzBudgetCap -fuzztime=$(FUZZTIME) ./internal/apu/

# verify is the tier-1 gate: everything must be gofmt-clean, compile
# (for the non-Linux build tags as well), vet clean under both tag
# sets, and pass the full test suite under the race detector.
# bench/corunmark is a Go module of its own, so ./... never reaches
# it; its smoke test builds corund and the probe (the one importer of
# corun/internal/... outside this module) and runs all four benchmark
# workloads at 1/50 size, which is what catches an internal rename.
# The epoch-boundary tests race submitters against the scheduler's
# batching gap, so they run twenty times more under the race detector;
# the durable-ack property test races submitters against injected
# fsync faults, so it runs five times more. So does the job-table
# concurrency test: its scraper renders GET /v1/trace from the slice of
# done views while epochs append to it.
verify: fmtcheck cross
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestPriorityPreemption|TestFullEpochClosesBeforeGap|TestFullClaimKeepsPreemptionWindow' ./internal/server
	$(GO) test -race -count=5 -run 'TestSubmitDurableAck' ./internal/server
	$(GO) test -race -count=5 -run 'TestJobTableConcurrency' ./internal/server
	cd bench/corunmark && $(GO) vet ./... && $(GO) test ./...

# size prints the module's Go line counts outside bench/ (a module of
# its own), non-test and test — the figure a simplification PR quotes —
# then the non-test lines per top-level directory ("." is the facade's
# own files), so a diff shows where lines went: moved code is not a
# reduction.
size:
	@count() { find . -name '*.go' -not -path './bench/*' -not -path './.*' "$$@" -print0 | xargs -0 -r cat | wc -l; }; \
	echo "non-test Go: $$(count -not -name '*_test.go') lines; test Go: $$(count -name '*_test.go') lines (outside bench/)"; \
	printf '  %-10s %6d\n' . "$$(count -not -path './*/*' -not -name '*_test.go')"; \
	for d in */; do d=$${d%/}; n=$$(count -path "./$$d/*" -not -name '*_test.go'); \
		[ "$$n" -gt 0 ] && printf '  %-10s %6d\n' "$$d" "$$n"; done; true

corund:
	$(GO) build -o bin/corund ./cmd/corund

clean:
	rm -rf bin .bench_build
