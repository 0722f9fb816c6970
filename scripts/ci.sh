#!/usr/bin/env sh
# Offline CI gate for the SuperNoVA workspace — stage-addressable.
#
#   scripts/ci.sh                  run every stage, in order
#   scripts/ci.sh --list           print the stage registry and exit
#   scripts/ci.sh --stage a,b,c    run exactly those stages, in the given order
#   scripts/ci.sh --from NAME      run NAME and everything after it
#
# Stages, in registry order (each is a named, timed gate; the run stops
# at the first failure):
#
#   fmt          cargo fmt --check
#   build        release build of the workspace; fails first if an
#                x86_64 build does not target AVX2
#   test         cargo test -q --workspace
#   doc          cargo doc --no-deps with warnings denied
#   lint         supernova-analyze `lint` bin: schedule/ledger,
#                host-schedule and trace invariant sweeps (no source lint;
#                static-analysis owns that pass). This stage and the next
#                run under the test profile: optimized, debug assertions on
#   static-analysis
#                the one source lint pass per run, as machine-readable
#                diagnostics: lint engine v2 JSON report (fails on any
#                non-allowlisted finding, every allow-escape recorded with
#                provenance) + interference certification of every seeded
#                dataset's execution plan; report archived at
#                results/analyze_diagnostics.json
#   determinism  three online replays: final factor-bytes and estimate
#                hashes against committed oracle constants; plus
#                analyze-incremental: prefix-reusing analysis vs a
#                from-scratch twin, plan fingerprints equal on every step
#   repro        `repro all --scale 0.05` into a scratch directory, then
#                `diff -r` against tests/fixtures/repro_0.05/: every
#                paper table and figure CSV, simulator output included,
#                byte for byte (refresh: results/README.md)
#   serve-smoke  serving layer: bit-identity, overload, trace cross-check
#   fleet-smoke  fleet layer: shard routing, live migration, kill-a-shard
#                failover with checkpoint-bounded replay suffixes,
#                floors-aware zero-loss journal coverage, compaction
#   chaos        fleet chaos drills: router restart at both migration
#                crash points, double shard kill, add-shard-under-load —
#                all gated on bit-identity + zero loss
#   bench-quick  the benchmark/ harness at tiny sizes (`run --quick`):
#                every workload's correctness checks — phase-driver byte
#                identity, served/routed bit identity — in well under a
#                minute; no timing is gated
#   kernel-bench regenerate results/BENCH_kernels.json (blocked vs
#                reference dense-kernel throughput; gated on the
#                in-process speedup ratio, which is host-noise immune)
#   bench        regenerate results/BENCH_fleet.json (the load_gen --fleet
#                failover drill)
#   bench-check  compare the fresh kernel and fleet artifacts against
#                results/baselines/: exact drift checks and in-process
#                kernel speedup ratios; no wall time is compared
#                (benchmark/ measures wall time)
#
# No network access required — the workspace has no external dependencies
# and every gate is an in-tree binary. Per-stage wall-clock timings and
# statuses (ok / failed / skipped) are written, machine-readable, to
# results/ci_stage_times.json — on failure too: the failed stage is
# recorded as "failed" and every never-run stage as "skipped".
set -u

cd "$(dirname "$0")/.."

STAGES="fmt build test doc lint static-analysis determinism repro serve-smoke fleet-smoke chaos bench-quick kernel-bench bench bench-check"

now() {
    # GNU date gives fractional seconds. Some date(1) implementations
    # print the '%N' literally ("1723180800.N"), which would silently
    # corrupt the awk arithmetic below — validate the output is purely
    # numeric and fall back to whole seconds otherwise.
    _t=$(date +%s.%N 2>/dev/null || date +%s)
    case "$_t" in
        "" | . | *[!0-9.]*) _t=$(date +%s) ;;
    esac
    echo "$_t"
}

list_stages() {
    echo "stages (registry order):"
    for _s in $STAGES; do
        echo "  $_s"
    done
}

is_stage() {
    for _s in $STAGES; do
        [ "$_s" = "$1" ] && return 0
    done
    return 1
}

require_stage() {
    if ! is_stage "$1"; then
        echo "ci: unknown stage '$1'" >&2
        list_stages >&2
        exit 2
    fi
}

SELECT=""
FROM=""
while [ $# -gt 0 ]; do
    case "$1" in
        --list)
            list_stages
            exit 0
            ;;
        --stage)
            shift
            if [ $# -eq 0 ]; then
                echo "ci: --stage needs a name (or comma-separated names)" >&2
                exit 2
            fi
            SELECT="$SELECT $(echo "$1" | tr ',' ' ')"
            ;;
        --from)
            shift
            if [ $# -eq 0 ]; then
                echo "ci: --from needs a stage name" >&2
                exit 2
            fi
            FROM="$1"
            ;;
        *)
            echo "ci: unknown option '$1' (try --list, --stage NAME[,NAME...], --from NAME)" >&2
            exit 2
            ;;
    esac
    shift
done
if [ -n "$SELECT" ] && [ -n "$FROM" ]; then
    echo "ci: --stage and --from are mutually exclusive" >&2
    exit 2
fi
for _s in $SELECT; do
    require_stage "$_s"
done
if [ -n "$FROM" ]; then
    require_stage "$FROM"
    _seen=0
    for _s in $STAGES; do
        [ "$_s" = "$FROM" ] && _seen=1
        [ $_seen -eq 1 ] && SELECT="$SELECT $_s"
    done
fi
[ -n "$SELECT" ] || SELECT="$STAGES"

doc_deny_warnings() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
}

# The workspace builds for x86-64-v3 (.cargo/config.toml). A RUSTFLAGS or
# CARGO_ENCODED_RUSTFLAGS variable, even an empty one, replaces those flags
# without a word, so an x86_64 build must show it still targets AVX2.
require_target_isa() {
    _cfg=$(cargo rustc -q --release -p supernova-linalg --lib -- --print cfg) || return 1
    case "$_cfg" in
        *'target_arch="x86_64"'*) ;;
        *) return 0 ;;
    esac
    case "$_cfg" in
        *'target_feature="avx2"'*) return 0 ;;
    esac
    echo "ci: this x86_64 build does not target AVX2: RUSTFLAGS or CARGO_ENCODED_RUSTFLAGS replaced .cargo/config.toml's target-cpu=x86-64-v3 (unset them; DESIGN.md §11)" >&2
    return 1
}

build_all() {
    require_target_isa &&
        cargo build --release --workspace
}

static_analysis() {
    mkdir -p results &&
        cargo run -q --profile test -p supernova-analyze --bin analyze -- --json results/analyze_diagnostics.json
}

# The paper's tables and figures at a small scale, written fresh and
# compared byte for byte with the committed fixture.
repro_gate() {
    _out=$(mktemp -d) || return 1
    cargo run --release -q -p supernova-bench --bin repro -- all --scale 0.05 --out "$_out" >/dev/null &&
        diff -r tests/fixtures/repro_0.05 "$_out"
    _rc=$?
    rm -rf "$_out"
    return $_rc
}

run_stage() {
    case "$1" in
        fmt) cargo fmt --all --check ;;
        build) build_all ;;
        test) cargo test -q --workspace ;;
        doc) doc_deny_warnings ;;
        lint) cargo run -q --profile test -p supernova-analyze --bin lint ;;
        static-analysis) static_analysis ;;
        determinism) cargo run --release -q -p supernova-bench --bin determinism ;;
        repro) repro_gate ;;
        serve-smoke) cargo run --release -q -p supernova-serve --bin serve_smoke ;;
        fleet-smoke) cargo run --release -q -p supernova-fleet --bin fleet_smoke ;;
        chaos) cargo run --release -q -p supernova-fleet --bin load_gen -- --chaos ;;
        bench-quick) cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick ;;
        kernel-bench) cargo run --release -q -p supernova-bench --bin kernel_bench ;;
        bench) cargo run --release -q -p supernova-fleet --bin load_gen -- --fleet >/dev/null ;;
        bench-check) cargo run --release -q -p supernova-bench --bin bench_check ;;
        *)
            echo "ci: unknown stage '$1'" >&2
            return 2
            ;;
    esac
}

TOTAL_START=$(now)
STAGE_JSON=""
RECORDED=""

# record <name> <status> [wall_s] — append one stage row to the report.
record() {
    _row="    { \"name\": \"$1\", \"status\": \"$2\""
    if [ $# -ge 3 ]; then
        _row="$_row, \"wall_s\": $3"
    fi
    _row="$_row }"
    if [ -n "$STAGE_JSON" ]; then
        STAGE_JSON="$STAGE_JSON,
"
    fi
    STAGE_JSON="$STAGE_JSON$_row"
    RECORDED="$RECORDED $1"
}

# No locals in POSIX sh: keep this loop variable distinct from the
# caller's, or it clobbers write_report's iterator.
was_recorded() {
    for _r in $RECORDED; do
        [ "$_r" = "$1" ] && return 0
    done
    return 1
}

# Every registry stage not executed (deselected, or after a failure) is
# accounted as "skipped" so the report always covers the full registry.
write_report() {
    for _w in $STAGES; do
        was_recorded "$_w" || record "$_w" skipped
    done
    TOTAL_END=$(now)
    TOTAL_WALL=$(awk "BEGIN { printf \"%.3f\", $TOTAL_END - $TOTAL_START }")
    mkdir -p results
    cat > results/ci_stage_times.json <<EOF
{
  "stages": [
$STAGE_JSON
  ],
  "total_s": $TOTAL_WALL
}
EOF
}

RAN=0
for _name in $SELECT; do
    echo "==> $_name"
    _start=$(now)
    if run_stage "$_name"; then
        _end=$(now)
        _wall=$(awk "BEGIN { printf \"%.3f\", $_end - $_start }")
        echo "==> $_name: ok (${_wall}s)"
        record "$_name" ok "$_wall"
        RAN=$((RAN + 1))
    else
        _end=$(now)
        _wall=$(awk "BEGIN { printf \"%.3f\", $_end - $_start }")
        echo "==> $_name: FAILED (${_wall}s)" >&2
        record "$_name" failed "$_wall"
        write_report
        echo "ci: stage '$_name' failed (statuses: results/ci_stage_times.json)" >&2
        exit 1
    fi
done

write_report
echo "ci: $RAN stage(s) passed in ${TOTAL_WALL}s (timings: results/ci_stage_times.json)"
