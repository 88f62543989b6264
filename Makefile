GO ?= go

.PHONY: fmt build test test-386 race vet bench bench-test fuzz-smoke lint lint-sarif lint-fixtures lint-inject-smoke smoke fleet-smoke crowd-smoke serve-smoke ci

# fmt fails when any Go file is not gofmt-formatted, and lists it.
fmt:
	@files="$$(gofmt -l .)"; test -z "$$files" || { echo "gofmt needed:" >&2; echo "$$files" >&2; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# test-386 runs the dataset codec tests on a 32-bit int, where the JSON
# integers that overflow it must fail as they do in encoding/json.
test-386:
	GOARCH=386 $(GO) test ./internal/dataset

# bench runs the lane-engine scaling benchmark, the per-tick layer
# benches (log reconciliation, geo route lookup and a full-route drive
# pass, the moving, mobility-only and mmWave RAN ticks), the per-row
# merge bench (joining a GPS fix to the route on and off it) and the
# testbed construction benches (one operator's full-route deployment, a
# 20 km campaign's NewCampaign) once each, so CI keeps them compiling
# and running. Dataset decoding (Load of the
# 700 km benchmark dataset, from memory and from a file), encoding
# (WriteJSON of it) and the paper report over it (Report, with its
# allocations) run once at -cpu 1 and once at -cpu 2, so that the codecs
# and the report's section workers run both on one core and split. The
# live crowd (a fresh 10k-UE registry over a 20 km run's 61,278 ticks,
# about a million events, with its allocations) runs once at -cpu 1. For
# real numbers drop -benchtime=1x; the full figure/table benches live in
# bench_test.go and run with `go test -bench=.`.
bench:
	$(GO) test -run=NONE -bench='^(BenchmarkCampaignRun|BenchmarkLogsyncMerge|BenchmarkRouteAt|BenchmarkTimelineScan|BenchmarkCursorNext|BenchmarkOdometerOf|BenchmarkUEStep|BenchmarkNewMap|BenchmarkNewCampaign)$$' -benchtime=1x . ./internal/geo ./internal/ran ./internal/deploy ./internal/core
	$(GO) test -run=NONE -bench='^(BenchmarkLoad|BenchmarkWriteJSON|BenchmarkReport)$$' -benchtime=1x -cpu 1,2 .
	$(GO) test -run=NONE -bench='^BenchmarkCrowdLive$$' -benchtime=1x -cpu 1 ./internal/ue

# bench-test vets and tests the repo benchmark (bench/, a module of its
# own that the root `go test ./...` does not reach): its golden digests,
# workload checks and compare logic.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke gives each native fuzz target a few seconds, so CI keeps
# them running: dataset.ReadJSON and dataset.WriteJSON against the
# encoding/json reference, with tables split from single rows to one
# range; the dataset's throughput, RTT and handover CSV readers,
# the daemon job-spec parser and the fleetsync artifact decoder (each:
# no panic, linear allocation, a re-encode fixpoint). Minimizing a new
# input is capped at 100 runs: the default cap is 60 s, so a 5 s target
# would otherwise spend its budget minimizing the first input it finds
# instead of fuzzing.
# Crashers are kept under the package's testdata/fuzz/ as regression
# inputs.
FUZZ = $(GO) test -run=NONE -fuzztime=5s -fuzzminimizetime=100x

fuzz-smoke:
	$(FUZZ) -fuzz='^FuzzReadJSON$$' ./internal/dataset
	$(FUZZ) -fuzz='^FuzzWriteJSON$$' ./internal/dataset
	$(FUZZ) -fuzz='^FuzzReadThroughputCSV$$' ./internal/dataset
	$(FUZZ) -fuzz='^FuzzReadRTTCSV$$' ./internal/dataset
	$(FUZZ) -fuzz='^FuzzReadHandoverCSV$$' ./internal/dataset
	$(FUZZ) -fuzz='^FuzzParseJobSpec$$' ./internal/serve
	$(FUZZ) -fuzz='^FuzzDecodeArtifact$$' ./internal/fleetsync

# lint runs the in-repo determinism & correctness linter (internal/lint)
# over every package; findings fail the build. Suppress intentional uses
# at the call site with `//lint:allow <rule> — reason`.
lint:
	$(GO) run ./cmd/lintwheels ./...

# lint-sarif renders the machine-readable SARIF 2.1.0 report CI uploads
# as an artifact. Generation never fails the target — the artifact must
# exist precisely when there are findings — lint does the gating.
lint-sarif:
	$(GO) run ./cmd/lintwheels -format sarif -o lint.sarif ./... || true

# lint-fixtures self-checks the rule corpus: every rule's testdata
# fixtures must produce exactly the golden diagnostics — including the
# concurrency/resource corpora (goleak, ctxflow, lockhold, resleak).
lint-fixtures:
	$(GO) test ./internal/lint/...

# lint-inject-smoke proves the concurrency/resource gate end to end: a
# file with a leaked goroutine, a ctx-less blocking call, a held lock,
# and a leaked file is injected into internal/serve; lintwheels must
# fail naming all four rules, and the injection is removed again.
lint-inject-smoke:
	./scripts/lint_inject_smoke.sh

# smoke runs a short instrumented campaign end to end through the real
# CLI (`cellwheels run`): dataset + run manifest (manifest.json is the
# CI artifact). Fails on any CLI regression the unit tests sit below. It
# then reruns the campaign with one and with two lane slots and requires
# the same dataset bytes: two slots for three lanes is the path where
# lanes wait on each other for a slot. The first run also prints its
# -progress lines to smoke-progress.log, and the last of them must
# report the whole planned distance: 100.0% with eta 0s. Its manifest
# must show every app log matched to its capture: no unmatched app log,
# and as many matches as tests in the dataset. A run on one
# core (GOMAXPROCS=1), where one worker encodes every chunk, must write
# the same bytes too, and the full report of the smoke dataset must be
# the same decoded on one core and on all of them. Last, the report
# front end renders Table 1 from the smoke dataset and lists the
# section ids.
smoke:
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -progress -metrics manifest.json -out smoke-dataset.json 2>smoke-progress.log || { cat smoke-progress.log >&2; exit 1; }
	grep '^obs:' smoke-progress.log | tail -n 1 | grep -E ' 100\.0% .*\| eta 0s$$' || { echo "smoke: last progress line is not 100.0% with eta 0s" >&2; cat smoke-progress.log >&2; exit 1; }
	awk -F'[": ,]+' '$$2 == "logsync/matched" { m = $$3 } $$2 == "logsync/unmatched_apps" { u = $$3 } $$2 == "table/tests" { n = $$3 } END { if (m == "" || u == "" || u != 0 || m != n) { printf "smoke: manifest.json: logsync/matched %s, logsync/unmatched_apps %s, table/tests %s\n", m, u, n > "/dev/stderr"; exit 1 } }' manifest.json
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -workers 1 -out smoke-dataset-w1.json
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -workers 2 -out smoke-dataset-w2.json
	cmp smoke-dataset-w1.json smoke-dataset-w2.json
	cmp smoke-dataset.json smoke-dataset-w1.json
	GOMAXPROCS=1 $(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -out smoke-dataset-p1.json
	cmp smoke-dataset.json smoke-dataset-p1.json
	GOMAXPROCS=1 $(GO) run ./cmd/cellwheels report -in smoke-dataset.json >smoke-report-p1.txt
	$(GO) run ./cmd/cellwheels report -in smoke-dataset.json >smoke-report.txt
	cmp smoke-report.txt smoke-report-p1.txt
	$(GO) run ./cmd/cellwheels report -in smoke-dataset.json -section table1
	$(GO) run ./cmd/cellwheels report -list

# fleet-smoke runs a 3-replicate fleet through the real `cellwheels fleet`:
# scenario parsing, the worker pool, streaming reduction, and the report/
# manifest writers all on the real CLI path. fleet-out/fleet-manifest.json
# is the CI artifact.
fleet-smoke:
	$(GO) run ./cmd/cellwheels fleet -scenario testdata/fleet-smoke.json -workers 2 -out fleet-out

# crowd-smoke drives a 10⁴-UE metro-scale crowd through the real
# `cellwheels run` path — registry construction, event wheel, demand-driven
# load, and in-run crowd measurements — over a short route.
# crowd-manifest.json (events, attached, measurements) is the CI artifact.
crowd-smoke:
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 10 -crowd 10000 -crowd-samples 4 -load-model demand -skip-apps -out crowd-dataset.json -metrics crowd-manifest.json

# serve-smoke runs the `cellwheels serve` daemon end to end over
# loopback: a campaign job, a fleet job, and a collect job (fed by real
# `cellwheels fleet -push` workers through the daemon's /fleetsync/v1
# mount) are submitted via curl and their downloaded artifacts
# byte-diffed against direct `cellwheels run`/`fleet` runs, the report
# against `cellwheels report -in` on the direct run's dataset; a final
# SIGTERM mid-job pins the graceful drain.
# serve-out/wheelsd-manifest.json is the CI artifact.
serve-smoke:
	./scripts/serve_smoke.sh

# lint-sarif runs before the lint gates so the artifact exists for CI
# upload even when lint fails the build.
ci: fmt vet build test-386 lint-sarif lint lint-inject-smoke race bench bench-test fuzz-smoke smoke fleet-smoke crowd-smoke serve-smoke
