#!/usr/bin/env bash
# Graceful-degradation gate: build, lint (clippy at -D warnings), test,
# statically certify every instrumented suite variant (pythia-lint), then
# smoke-run the reproduce binary and fail on any `internal` error — the
# one taxonomy variant that means the harness itself is broken
# (DESIGN.md, "Error taxonomy").
#
# `setup`/`fault`/`detection` statuses in the smoke JSON are data, not CI
# failures; they still flip reproduce's exit code, which this script
# reports but tolerates, so a hostile benchmark can't mask an internal bug.
#
# Usage: scripts/check.sh [out-dir]   (default: check-out)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-check-out}"
mkdir -p "$OUT"

echo "== cargo build --release --workspace =="
# --workspace: the root manifest is both a package and a workspace, so a
# bare `cargo build` would only build the root package — leaving the
# `reproduce` and `pythia-lint` binaries this script runs stale.
cargo build --release --workspace

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings) =="
# The analysis/passes/core crates carry #![warn(missing_docs)]; denying
# rustdoc warnings here turns a stale or missing doc into a CI failure.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test -q --workspace =="
# --workspace for the same reason as the build above: a bare `cargo
# test` from the root only tests the root package.
cargo test -q --workspace

echo "== perfbench: build + unit tests =="
# The repository benchmark is a package of its own that builds VmConfig
# and ServerRunStats directly and drives Vm, CacheSim and the event
# loop; building it here makes an API change that breaks the benchmark
# fail CI instead of the next benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== pythia-lint --all-schemes =="
# Static certification gate: every suite benchmark, instrumented under
# every scheme, must satisfy all protection invariants (DESIGN.md §5c).
# Any diagnostic is fatal — a violation means a pass emitted unsound
# instrumentation, which would invalidate every downstream measurement.
target/release/pythia-lint --all-schemes

echo "== reproduce --smoke --bench-json --lint --profile =="
smoke_status=0
target/release/reproduce --smoke --bench-json --lint --profile --out "$OUT" >/dev/null || smoke_status=$?
JSON="$OUT/BENCH_suite.json"

if [ ! -f "$JSON" ]; then
    echo "FAIL: smoke run produced no $JSON" >&2
    exit 1
fi
if grep -q '"status": "internal"' "$JSON"; then
    echo "FAIL: internal error in smoke suite — harness bug:" >&2
    grep -B2 '"status": "internal"' "$JSON" >&2
    exit 1
fi
if [ "$smoke_status" -ne 0 ]; then
    # Non-internal failures (setup/fault/detection) are typed, reported,
    # and unexpected in the smoke set: surface them as a failure too.
    echo "FAIL: smoke suite had failing benchmarks (exit $smoke_status):" >&2
    grep '"status"' "$JSON" >&2
    exit 1
fi

if grep -q '"lint": "violated"' "$JSON"; then
    echo "FAIL: a smoke benchmark failed static certification:" >&2
    grep '"lint"' "$JSON" >&2
    exit 1
fi

# Profiler gates: the JSON must carry the profile schema, every
# PA-instrumented scheme must actually execute PA operations, and the
# profiler's static PA scan must agree with passes::stats everywhere.
if ! grep -q '"profile": {' "$JSON"; then
    echo "FAIL: smoke JSON lacks the profile block despite --profile" >&2
    exit 1
fi
if grep -E '"scheme": "(cpa|pythia)"' "$JSON" | grep -q '"pa_executed": 0'; then
    echo "FAIL: a PA-instrumented scheme executed zero PA operations:" >&2
    grep -E '"scheme": "(cpa|pythia)"' "$JSON" >&2
    exit 1
fi
if grep -q '"pa_static_match": false' "$JSON"; then
    echo "FAIL: profiler static PA scan disagrees with instrumentation stats:" >&2
    grep '"pa_static_match": false' "$JSON" >&2
    exit 1
fi

# Differential engine gate: the block-cached engine must be observation-
# preserving — one smoke pass per engine, rendered reports byte-identical.
# Everything a report can show (attack outcomes, metrics, overheads,
# profiles) goes through the VM, so a byte-identical report means the
# block engine reproduced every observable of the legacy interpreter.
echo "== engine differential gate (legacy vs block, smoke) =="
target/release/reproduce --smoke --engine legacy --out "$OUT/engine-legacy" >/dev/null || true
target/release/reproduce --smoke --engine block --out "$OUT/engine-block" >/dev/null || true
if ! diff -q "$OUT/engine-legacy/report.md" "$OUT/engine-block/report.md"; then
    echo "FAIL: legacy and block engines render different reports" >&2
    diff -u "$OUT/engine-legacy/report.md" "$OUT/engine-block/report.md" | head -50 >&2
    exit 1
fi
echo "OK: legacy and block engine reports are byte-identical"

# Precision-stage gate: the field-sensitive points-to + bounds-proof
# pruner must drop at least one obligation on at least one smoke
# benchmark (mcf prunes; lbm and nginx legitimately don't). A zero
# everywhere means the precision stage silently stopped firing — the
# pruned builds are still certified by pythia-lint's OPT-01 above.
if ! grep -qE '"obligations_pruned": [1-9]' "$JSON"; then
    echo "FAIL: no smoke benchmark pruned any obligation — precision stage inert:" >&2
    grep '"obligations_pruned"' "$JSON" >&2
    exit 1
fi

# Context-solver gates: the 1-CFA layer must prune Pythia heap-section
# obligations on at least one smoke benchmark (mcf prunes; lbm has no
# heap predicates and nginx legitimately doesn't), and no smoke
# benchmark may hit the solver's node-budget fallback — a fallback here
# means the budget regressed or the object remap diverged, silently
# degrading every context-derived proof to the insensitive relation.
if ! grep -qE '"pythia_heap_pruned": [1-9]' "$JSON"; then
    echo "FAIL: no smoke benchmark pruned a Pythia heap obligation — 1-CFA layer inert:" >&2
    grep '"pythia_heap_pruned"' "$JSON" >&2
    exit 1
fi
if grep -q '"ctx_fallback": true' "$JSON"; then
    echo "FAIL: the 1-CFA solver fell back to the insensitive relation on a smoke benchmark:" >&2
    grep '"ctx_fallback"' "$JSON" >&2
    exit 1
fi
if ! grep -qE '"contexts": [1-9]' "$JSON"; then
    echo "FAIL: the 1-CFA solver explored no calling contexts on the smoke set:" >&2
    grep '"contexts"' "$JSON" >&2
    exit 1
fi
echo "OK: context solver prunes heap obligations with zero budget fallbacks"

# Policy differential gate: the same smoke suite under the 1-CFA policy
# (the summary solver at k = 1) and the default summary 2-CFA policy
# (DESIGN.md §5j). The
# attack-outcome figures (fig7b branch coverage, dist attack distance,
# campaign detection rates) must be byte-identical across every policy —
# a sharper relation may only prune proof obligations, never change a
# detection. Overhead figures (fig4a etc.) legitimately shift with the
# policy: pruning removes instrumentation, which is the point. The
# per-benchmark pruned counts may only grow under the deeper policy,
# with zero budget fallbacks on either side. A PYTHIA_CTX_BUDGET=0 run
# must relabel itself "insensitive" and still render the same outcomes.
echo "== policy differential gate (1cfa vs summary-2cfa vs budget=0, smoke) =="
PYTHIA_CTX_POLICY=1cfa target/release/reproduce --smoke --bench-json \
    --out "$OUT/pol-1cfa" >/dev/null
PYTHIA_CTX_POLICY=summary-2cfa target/release/reproduce --smoke --bench-json \
    --out "$OUT/pol-summary" >/dev/null
PYTHIA_CTX_POLICY=summary-2cfa target/release/reproduce --smoke fig7b dist campaign \
    > "$OUT/pol-summary-attack.txt" 2>/dev/null
for pol_env in "PYTHIA_CTX_POLICY=1cfa" "PYTHIA_CTX_BUDGET=0" "PYTHIA_CTX_POLICY=objsens"; do
    env "$pol_env" target/release/reproduce --smoke fig7b dist campaign \
        > "$OUT/pol-attack-alt.txt" 2>/dev/null
    if ! diff -q "$OUT/pol-attack-alt.txt" "$OUT/pol-summary-attack.txt"; then
        echo "FAIL: $pol_env changed an attack outcome vs summary-2cfa" >&2
        diff -u "$OUT/pol-attack-alt.txt" "$OUT/pol-summary-attack.txt" | head -30 >&2
        exit 1
    fi
done
for pol in 1cfa summary; do
    PJ="$OUT/pol-$pol/BENCH_suite.json"
    if grep -q '"ctx_fallback": true' "$PJ"; then
        echo "FAIL: budget fallback under the $pol policy run:" >&2
        grep '"ctx_fallback"' "$PJ" >&2
        exit 1
    fi
done
if ! grep -q '"policy": "1cfa"' "$OUT/pol-1cfa/BENCH_suite.json"; then
    echo "FAIL: 1cfa run does not report policy=1cfa" >&2
    exit 1
fi
if ! grep -q '"policy": "summary-2cfa"' "$OUT/pol-summary/BENCH_suite.json"; then
    echo "FAIL: summary run does not report policy=summary-2cfa" >&2
    exit 1
fi
# Per-benchmark monotonicity: rows render in deterministic suite order,
# so a positional pairing of the pruned counters is exact.
if ! paste \
    <(grep -o '"obligations_pruned": [0-9]*' "$OUT/pol-1cfa/BENCH_suite.json" | grep -o '[0-9]*$') \
    <(grep -o '"obligations_pruned": [0-9]*' "$OUT/pol-summary/BENCH_suite.json" | grep -o '[0-9]*$') \
    | awk '$2 < $1 { bad = 1 } END { exit bad }'; then
    echo "FAIL: summary-2cfa pruned fewer obligations than 1cfa on a smoke benchmark" >&2
    exit 1
fi
PYTHIA_CTX_BUDGET=0 target/release/reproduce --smoke --bench-json \
    --out "$OUT/pol-insens" >/dev/null
if ! grep -q '"policy": "insensitive"' "$OUT/pol-insens/BENCH_suite.json"; then
    echo "FAIL: PYTHIA_CTX_BUDGET=0 run does not report policy=insensitive:" >&2
    grep '"policy"' "$OUT/pol-insens/BENCH_suite.json" >&2
    exit 1
fi
echo "OK: policies agree on every attack outcome; summary-2cfa pruning dominates 1cfa; budget=0 reports insensitive"

# An unknown policy spelling must be rejected up front (exit 2, valid
# spellings named), never silently run the default solver.
echo "== unknown PYTHIA_CTX_POLICY is rejected =="
bad_status=0
PYTHIA_CTX_POLICY=no-such-policy target/release/reproduce --smoke \
    > /dev/null 2> "$OUT/pol-bad.err" || bad_status=$?
if [ "$bad_status" -ne 2 ] || ! grep -q 'insensitive, 1cfa, summary-2cfa, objsens' "$OUT/pol-bad.err"; then
    echo "FAIL: PYTHIA_CTX_POLICY=no-such-policy exited $bad_status (want 2 naming the valid spellings):" >&2
    cat "$OUT/pol-bad.err" >&2
    exit 1
fi
echo "OK: unknown policy rejected with exit 2"

# Likewise an unknown engine: a typo'd PYTHIA_ENGINE must not silently
# run the block engine.
echo "== unknown PYTHIA_ENGINE is rejected =="
bad_status=0
PYTHIA_ENGINE=no-such-engine target/release/reproduce --smoke \
    > /dev/null 2> "$OUT/engine-bad.err" || bad_status=$?
if [ "$bad_status" -ne 2 ] || ! grep -q 'legacy, block' "$OUT/engine-bad.err"; then
    echo "FAIL: PYTHIA_ENGINE=no-such-engine exited $bad_status (want 2 naming legacy, block):" >&2
    cat "$OUT/engine-bad.err" >&2
    exit 1
fi
echo "OK: unknown engine rejected with exit 2"

# Ref-tier gate: one fast benchmark at --tier ref through the streaming
# runner. The tier's bounded-loop array walks must give the interval
# analysis something to discharge — nonzero proven geps AND pruned
# obligations on the same benchmark — and the JSON must attest the
# streaming path actually ran (tier + runner fields).
echo "== ref-tier single-benchmark gate (lbm, streaming) =="
# The trailing `fig4a` section keeps the run suite-only: a bare
# invocation would render the full report's campaign/ablation sections,
# which dwarf the single benchmark this gate actually measures.
target/release/reproduce --only 519.lbm_r --tier ref --bench-json --out "$OUT/ref-gate" fig4a >/dev/null
REFJSON="$OUT/ref-gate/BENCH_suite.json"
if ! grep -q '"tier": "ref"' "$REFJSON"; then
    echo "FAIL: ref-tier run did not report tier=ref" >&2
    exit 1
fi
if ! grep -q '"runner": "streaming"' "$REFJSON"; then
    echo "FAIL: ref-tier run did not go through the streaming runner" >&2
    exit 1
fi
if ! grep -qE '"proven_geps": [1-9]' "$REFJSON"; then
    echo "FAIL: ref-tier lbm proved no gep bounds — walk generation or interval analysis inert:" >&2
    grep '"proven_geps"' "$REFJSON" >&2
    exit 1
fi
if ! grep -qE '"obligations_pruned": [1-9]' "$REFJSON"; then
    echo "FAIL: ref-tier lbm pruned no obligations despite proven geps:" >&2
    grep '"obligations_pruned"' "$REFJSON" >&2
    exit 1
fi
echo "OK: ref-tier lbm proves gep bounds and prunes obligations under the streaming runner"

# Server-scenario gate: a short event-loop run (DESIGN.md §5i) must
# retire requests, must detect at least one *in-window* attack under
# pythia (offset > 0 — the boundary bucket alone would mean the jitter
# model collapsed), and must finish with zero internal errors in every
# scheme's loop. The scenario exit code already reflects internal
# errors; the greps keep the gate honest against exit-code regressions.
echo "== server scenario smoke gate (event loop, timed window attacks) =="
target/release/reproduce --scenario server --connections 8 --requests 4000 \
    --out "$OUT/server" >/dev/null
SRVJSON="$OUT/server/BENCH_server.json"
if [ ! -f "$SRVJSON" ]; then
    echo "FAIL: server scenario produced no $SRVJSON" >&2
    exit 1
fi
if grep -qE '"internal_errors": [1-9]' "$SRVJSON"; then
    echo "FAIL: server scenario recorded internal errors:" >&2
    grep '"internal_errors"' "$SRVJSON" >&2
    exit 1
fi
if ! grep -qE '"retired": [1-9]' "$SRVJSON"; then
    echo "FAIL: server scenario retired no requests:" >&2
    grep '"retired"' "$SRVJSON" >&2
    exit 1
fi
pythia_hits=$(awk '/"scheme": "pythia"/{f=1} f && /"in_window_detections"/{gsub(/[^0-9]/,""); print; exit}' "$SRVJSON")
if [ -z "$pythia_hits" ] || [ "$pythia_hits" -eq 0 ]; then
    echo "FAIL: pythia detected no in-window attacks in the server scenario" >&2
    grep '"in_window_detections"' "$SRVJSON" >&2
    exit 1
fi
echo "OK: server scenario retires requests, pythia detects $pythia_hits in-window attacks, zero internal errors"

# Server golden gate: BENCH_server.json carries only deterministic,
# engine-free facts (detection tables, simulated-cycle latencies,
# counters), so the scenario must write the same bytes under either
# engine. Both engines read every budget slice off the one checkpointed
# run per request (`Vm::run_sliced`), so legacy-vs-block agreement alone
# no longer compares against a real restart replay: each engine's file
# is diffed against tests/golden/BENCH_server.json, written by the event
# loop that still re-ran every slice from scratch.
echo "== server golden gate (legacy and block vs tests/golden/BENCH_server.json) =="
GOLDEN=tests/golden/BENCH_server.json
for engine in legacy block; do
    target/release/reproduce --scenario server --connections 8 --requests 4000 \
        --engine "$engine" --out "$OUT/server-$engine" >/dev/null
    if ! diff -q "$GOLDEN" "$OUT/server-$engine/BENCH_server.json"; then
        echo "FAIL: the $engine engine's BENCH_server.json differs from $GOLDEN" >&2
        diff -u "$GOLDEN" "$OUT/server-$engine/BENCH_server.json" | head -50 >&2
        exit 1
    fi
done
echo "OK: legacy and block engine BENCH_server.json match $GOLDEN byte for byte"

echo "OK: build, clippy, docs, tests, certification, smoke suite, engine differential, profiler, pruning, ref-tier, server-scenario and server golden gates are clean ($JSON)"
