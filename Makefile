GO ?= go

.PHONY: fmt build test race vet bench bench-test fuzz-smoke lint lint-baseline lint-sarif lint-fixtures lint-inject-smoke smoke fleet-smoke crowd-smoke serve-smoke examples ci

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

# bench runs the lane-engine scaling benchmark, dataset decoding
# (Load of the 700 km benchmark dataset, from memory and from a file)
# and encoding (WriteJSON of it), the per-tick layer benches
# (log reconciliation, geo route lookup and a full-route drive pass,
# the moving, mobility-only and mmWave RAN ticks), the per-row merge
# benches (joining a GPS fix to the route on and off it, parsing a
# content stamp) and the testbed construction benches (one operator's
# full-route deployment, a 20 km campaign's NewCampaign) once each, so
# CI keeps them compiling and running. For real numbers drop
# -benchtime=1x; the full figure/table benches live in bench_test.go
# and run with `go test -bench=.`.
bench:
	$(GO) test -run=NONE -bench='^(BenchmarkCampaignRun|BenchmarkLoad|BenchmarkWriteJSON|BenchmarkLogsyncMerge|BenchmarkRouteAt|BenchmarkTimelineScan|BenchmarkOdometerOf|BenchmarkParseContentTime|BenchmarkUEStep|BenchmarkNewMap|BenchmarkNewCampaign)$$' -benchtime=1x . ./internal/geo ./internal/logsync ./internal/ran ./internal/deploy ./internal/core

# bench-test vets and tests the repo benchmark (bench/, a module of its
# own that the root `go test ./...` does not reach): its golden digests,
# workload checks and compare logic.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke gives each native fuzz target a few seconds, so CI keeps
# them running: dataset.ReadJSON and dataset.WriteJSON against the
# encoding/json reference,
# the daemon job-spec parser, the fleetsync artifact decoder and the
# .drm capture decoder (each: no panic, linear allocation, a re-encode
# fixpoint), and the XCAL stamp codecs against package time (the
# content- and logger-stamp parsers against time.ParseInLocation, the
# formatters against time.Time.Format).
# Crashers are kept under the package's testdata/fuzz/ as regression
# inputs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzReadJSON$$' -fuzztime=5s ./internal/dataset
	$(GO) test -run=NONE -fuzz='^FuzzWriteJSON$$' -fuzztime=5s ./internal/dataset
	$(GO) test -run=NONE -fuzz='^FuzzParseJobSpec$$' -fuzztime=5s ./internal/serve
	$(GO) test -run=NONE -fuzz='^FuzzDecodeArtifact$$' -fuzztime=5s ./internal/fleetsync
	$(GO) test -run=NONE -fuzz='^FuzzParseContentTime$$' -fuzztime=5s ./internal/logsync
	$(GO) test -run=NONE -fuzz='^FuzzParseLoggerTime$$' -fuzztime=5s ./internal/logsync
	$(GO) test -run=NONE -fuzz='^FuzzFormatStamps$$' -fuzztime=5s ./internal/xcal
	$(GO) test -run=NONE -fuzz='^FuzzReadDRM$$' -fuzztime=5s ./internal/xcal

# lint runs the in-repo determinism & correctness linter (internal/lint)
# over every package; findings fail the build. Suppress intentional uses
# at the call site with `//lint:allow <rule> — reason`.
lint:
	$(GO) run ./cmd/lintwheels ./...

# lint-baseline checks findings against the checked-in ratchet file:
# baselined findings are suppressed, stale entries fail the build, so
# the file can only shrink. It is expected to stay empty at merge;
# regenerate during a rule rollout with
#   $(GO) run ./cmd/lintwheels -baseline lint-baseline.json -write-baseline ./...
lint-baseline:
	$(GO) run ./cmd/lintwheels -baseline lint-baseline.json ./...

# lint-sarif renders the machine-readable SARIF 2.1.0 report CI uploads
# as an artifact. Generation never fails the target — the artifact must
# exist precisely when there are findings — lint/lint-baseline do the
# gating.
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
# lanes wait on each other for a slot. A fourth run archives the raw
# .drm captures into smoke-raw/ as the lanes go (-raw) and must write the
# same dataset as the others. The first run also prints its
# -progress lines to smoke-progress.log, and the last of them must
# report the whole planned distance: 100.0% with eta 0s. Last, the
# report front end renders Table 1 from the smoke dataset and lists the
# section ids.
smoke:
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -progress -metrics manifest.json -out smoke-dataset.json 2>smoke-progress.log || { cat smoke-progress.log >&2; exit 1; }
	grep '^obs:' smoke-progress.log | tail -n 1 | grep -E ' 100\.0% .*\| eta 0s$$' || { echo "smoke: last progress line is not 100.0% with eta 0s" >&2; cat smoke-progress.log >&2; exit 1; }
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -workers 1 -out smoke-dataset-w1.json
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -workers 2 -out smoke-dataset-w2.json
	cmp smoke-dataset-w1.json smoke-dataset-w2.json
	cmp smoke-dataset.json smoke-dataset-w1.json
	$(GO) run ./cmd/cellwheels run -seed 1 -limit-km 50 -raw smoke-raw -out smoke-dataset-raw.json
	cmp smoke-dataset.json smoke-dataset-raw.json
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

# examples runs each program in examples/ once; any non-zero exit fails
# the target, so the examples cannot rot into code that only compiles.
examples:
	@for d in examples/*/; do echo "examples: $$d" >&2; $(GO) run ./$$d >/dev/null || exit 1; done

# lint-sarif runs before the lint gates so the artifact exists for CI
# upload even when lint fails the build.
ci: fmt vet build lint-sarif lint lint-baseline lint-inject-smoke race bench bench-test fuzz-smoke smoke fleet-smoke crowd-smoke serve-smoke examples
