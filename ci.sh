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
# engine here, offline, so an engine API change cannot silently break it,
# then run its tests. They hold each workload's traced pass to its
# untraced digest and check the op lists and the spec pool, so an engine
# change that compiles but breaks the benchmark's repeatability fails
# here, not in a benchmark run.
(cd loasbench && go vet .)
(cd loasbench && go test -count=1 .)

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

# Slew stop-rule lane. meas stops the slew transient once the output
# has settled, and its slew rate keeps its bits only while the steepest
# step lies inside the prefix it ran. Measure is held bit for bit to
# RefMeasure, whose transient runs the full window, over the default
# benches, two late-settling Miller benches (one takes the full-window
# fallback) and a 24-synthesis population; a stopped Tran must be an
# exact prefix of the full run. A slew drift fails here, early and by
# name. The same lane runs the two searches sizing, meas and mc share:
# sim's UnityCrossing on an RC low-pass, meas' NullInput at each of its
# exits, and each caller's own failure text. No race detector, as for
# the golden lanes above.
go test -count=1 -run 'TestMeasureMatchesReference|TestMeasureRejectsBrokenBench|TestNullInput' ./internal/meas
go test -count=1 -run 'TestTranStopIsPrefix|TestUnityCrossing' ./internal/sim
go test -count=1 -run 'TestUnityCrossing|TestNullInput' ./internal/sizing ./internal/mc

# Warm-probe lane. Both offset bisections answer a probe after the
# first from a warm Newton solve (sim's WarmVolt) when its value lies at
# least 10 µV from every threshold the search compares it with, and
# from the cold OP otherwise; meas solves cold again where a warm probe
# was the last. OffsetSamples is held bit for bit, failed samples
# included, to the all-cold search over 24 designs × 25 samples, most of
# whose probes must be answered warm. A warm solve must match the cold
# OP within 1e-9 V, fail after its iteration bound and leave a later
# OP's bits alone, and the gmin ladder must walk its 12 pinned rungs.
# NullInput must take the same probes whichever tier answers them; it
# is fuzzed below. No race detector, as for the golden lanes above.
go test -count=1 -run 'TestOffsetMatchesReference' ./internal/mc
go test -count=1 -run 'TestWarmVolt|TestEngineReuseBitIdentical|TestGminLadder' ./internal/sim
go test -count=1 -run 'TestNullInput' ./internal/meas

# Reuse lane. A sizing pass rebinds one engine and relinearizes one AC
# solver for each evaluation, and stack.Generate scores its candidates
# in one reused buffer. Both are held bit for bit to fresh objects: an
# engine rebound onto other circuits and back, with its solver, against
# a new engine and PrepareAC (OP, stamps and phasors); Generate against
# the reference path that builds a Pattern per candidate, over a grid of
# stack specs. The kernels under every evaluation are held to the dense
# or unhoisted code they replaced: the LU that skips never-written
# entries against the dense elimination (random sparse matrices filled
# every way, at sizes either side of a 64-column pattern word), and the
# sizing bisections, which compute their bias point once and stop when
# the bracket stops, against the 80-step loops on the full model, over a
# grid of cards, lengths, biases, targets and temperatures. A drift
# fails here, early and by name. No race detector, as for the golden
# lanes above.
go test -count=1 -run 'TestRebindBitIdentical' ./internal/sim
go test -count=1 -run 'TestGenerateMatchesReference' ./internal/layout/stack
go test -count=1 -run 'TestFactorMatchesDense|TestFactorSetNegativeZero' ./internal/linalg
go test -count=1 -run 'Test(SizeForCurrent|SizeForGm|VGSForCurrent|Model)MatchesReference' ./internal/device

# Warm-path lane. GET /v1/runs walks an index of the run store ordered
# by Seq and stops at its limit, and a batch report splices each
# item's canonical cached summary in unscanned. The indexed store is
# held to the copy-and-sort list it replaced, over finish orders that
# differ from Seq order, evictions, replaced IDs, every filter and
# limits from 0 to 2,000; the batch writer is held to marshalJSON byte
# for byte over FuzzBatchReport's seed corpus (it is fuzzed below). A
# drift fails here, early and by name. No race detector, as for the
# reuse lane above.
go test -count=1 -run 'TestRunStoreMatchesReference|FuzzBatchReport' ./internal/serve

# Allocation-budget lane. The analyses and the layout plan allocate
# only what their callers read: one Measure of the five-t default
# design, one warm evaluation through a sizing pass's reused evaluator,
# a one-probe transient, one stack.Generate of the Fig. 3 mirror and one
# layout Plan of the five-t default design each have a byte and an
# allocation budget 1.25× above their measured values, so a per-probe
# netlist and engine, a per-evaluation engine or solver, a per-point
# map, a stored all-node waveform, a Pattern per stack candidate or a
# cell grown shape by shape fails here by name. One warm offset probe
# (sim's WarmVolt) must allocate nothing. Three warm daemon
# requests through the handler, ledger on, have budgets 1.05× above
# their measured values (internal/serve): one POST /v1/synthesize cache
# hit, one POST /v1/batch of six hits and one GET /v1/runs?limit=20
# over a full store. SSE frames rendered for no subscriber, a second
# copy of the run record, a body hashed again for its record, a
# per-read copy of the store or a second scan of a cached summary fail
# here too. The lane runs without the race detector, whose instrumented
# build need not allocate the same.
go test -count=1 -run 'AllocBudget' ./internal/sim ./internal/sizing ./internal/meas ./internal/serve \
    ./internal/layout/stack ./internal/layout/cairo

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

# Size report, not a gate: Go lines outside loasbench, without and with
# the tests, so that code moved into a test file stays visible.
find . -name '*.go' ! -name '*_test.go' ! -path './loasbench/*' ! -path './.bench_build/*' | xargs cat | wc -l
find . -name '*.go' ! -path './loasbench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# Brief fuzz run of the canonical-key corpus under the race detector.
go test -race -run '^$' -fuzz 'FuzzCanonicalKey$' -fuzztime 5s ./internal/serve

# Fuzz the batch multiset key: item-order invariance, multiplicity
# sensitivity, and per-item ulp sensitivity.
go test -race -run '^$' -fuzz FuzzBatchCanonicalKey -fuzztime 5s ./internal/serve

# Fuzz the shared MOS stencil: at any terminal voltages and under any
# probe set, every probe EvalIDStencil computes must match its EvalID
# call, CapsAt must match Caps(Eval(…)), and EvalID, IDSat and GmAt
# must match the model with every factor recomputed, bit for bit, on
# both device polarities.
go test -race -run '^$' -fuzz FuzzEvalIDStencil -fuzztime 5s ./internal/device

# Fuzz the LU: at any size, density and fill (Add, Set or straight into
# A, transposed, with NaN, Inf and −0 entries, singular), Factor must
# give the dense elimination's factors, pivots, solution and error.
go test -race -run '^$' -fuzz FuzzFactorMatchesDense -fuzztime 5s ./internal/linalg

# Fuzz the run-ledger decoder: arbitrary bytes must never panic the
# reader, and valid records must round-trip byte-identically.
go test -race -run '^$' -fuzz FuzzLedgerDecode -fuzztime 5s ./internal/obs

# Fuzz the batch report writer: at any item count, pagination echo,
# error text and summary, canonical or not, it must give marshalJSON's
# bytes.
go test -race -run '^$' -fuzz FuzzBatchReport -fuzztime 5s ./internal/serve

# Fuzz the offset bisection's warm tier: on any monotone, rail-clipped
# line, with warm values off by up to half the margin or failing at
# random probes, NullInput must take the all-exact search's probes to
# its vid, ok and error, and report which tier answered the last probe.
go test -race -run '^$' -fuzz FuzzNullInputWarm -fuzztime 5s ./internal/meas
