#!/bin/sh
# CI gate for the repository. The -race run is mandatory: the parallel
# synthesis engine (internal/parallel and its users in mc, core, repro,
# serve) is only shippable while the race detector, the worker-invariance
# tests and the shared-tech concurrency tests all pass.
set -eux

# Formatting gate: gofmt must have nothing to say.
test -z "$(gofmt -l .)"

go vet ./...
go build ./...
go build ./cmd/...
# The benchmark is its own module (loasbench/, `replace loas => ../`), so
# the root build never sees it: type-check it and its tests against the
# engine here, offline, so an engine API change cannot silently break it.
(cd loasbench && go vet .)

# Fingerprint lane. The fingerprint golden pins every topology's full
# synthesis output (one-shot slicing, refined at the default round
# budget, one-shot rows) shape by shape, with the spec and every
# device's sized W and L, and a Monte-Carlo offset run sample by
# sample, hex-exact; the other golden suites pin the paper's figures
# and the root benchmarks' custom metrics. A change that shifts a
# single ULP fails here, early and by name — never re-bless with
# -update to make this lane pass. The lane runs without the race
# detector because the race+coverage lane below runs the same tests
# under it.
go test -count=1 -run 'TestFingerprintGolden' ./internal/core
go test -count=1 -run 'Golden' . ./internal/repro ./internal/serve

# Verification fan-out lane. core.Synthesize runs its two verification
# passes on two goroutines: drive the fan-out with stub passes (errors,
# panics, span order) and with real five-t runs (a failed and a
# converged one, every span ended inside its parent), ten times over
# under the race detector.
go test -race -count=10 -run 'TestVerifyBothContract|TestFailedRunEndsSpans|TestSynthesizeVerifySpans' ./internal/core

# Race lane doubles as the coverage gate: total statement coverage must
# not sink below the floor (the suite sits near 84% — the floor trips on
# regressions, not noise). -shuffle=on randomizes test (and package init)
# order each run, so order-dependence on the package-level topology
# registry or any other global state surfaces here instead of in the
# field.
COVER_FLOOR=83.0
go test -race -shuffle=on -coverprofile=cover.out ./...
total=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
rm -f cover.out
awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN {
    if (t + 0 < f + 0) { printf "coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 }
    printf "coverage %.1f%% (floor %.1f%%)\n", t, f
}'

# Brief fuzz run of the canonical-key corpus under the race detector.
go test -race -run '^$' -fuzz 'FuzzCanonicalKey$' -fuzztime 5s ./internal/serve

# Fuzz the batch multiset key: item-order invariance, multiplicity
# sensitivity, and per-item ulp sensitivity.
go test -race -run '^$' -fuzz FuzzBatchCanonicalKey -fuzztime 5s ./internal/serve

# Fuzz the shared MOS stencil: at any terminal voltages, EvalIDStencil
# must match nine EvalID calls and CapsAt must match Caps(Eval(…)), bit
# for bit, on both device polarities.
go test -race -run '^$' -fuzz FuzzEvalIDStencil -fuzztime 5s ./internal/device

# Fuzz the run-ledger decoder: arbitrary bytes must never panic the
# reader, and valid records must round-trip byte-identically.
go test -race -run '^$' -fuzz FuzzLedgerDecode -fuzztime 5s ./internal/obs
