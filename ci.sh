#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite on the
# small kernel. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --release (warnings are errors)"
cargo clippy --workspace --release -- -D warnings

echo "==> cargo doc (rustdoc warnings, such as broken intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (PERSPECTIVE_KERNEL=small)"
PERSPECTIVE_KERNEL=small cargo test -q --release

# Release builds compile out the pipeline's per-cycle self-checks: the
# ROB's and the load/store queue's invariants, the execute stage's
# cross-check against a full walk, and the RSB-restore asserts. Run the
# pipeline's own tests and two whole-workload suites in a debug build.
echo "==> cargo test, debug build (the pipeline's debug-only checks)"
cargo test -q -p persp-uarch
PERSPECTIVE_KERNEL=small cargo test -q -p persp-workloads --test busy_path_golden \
    --test fastfwd_differential

# Clippy only type-checks the Criterion benches; run the matrix and
# instance-construction groups, and the ISV and scanner groups (which
# consume the FuncSet views), once, with few samples, so they must work.
for bench in bench_matrix bench_isv bench_scanner; do
    echo "==> Criterion smoke run ($bench, CRITERION_QUICK=1)"
    CRITERION_QUICK=1 cargo bench -p persp-bench --bench "$bench"
done

# Experiments whose small-kernel --json documents are pinned by a
# checked-in BENCH_<exp>.json baseline (deterministic at any
# PERSPECTIVE_THREADS width). The cache cell below covers only the ones
# that go through the cell cache; security_poc, table_8_1, table_8_2,
# fig_9_1 and sni_check do not. sni_check also exits nonzero unless clean
# Perspective runs show zero SNI violations, the UNSAFE baseline is
# flagged, the attack scenario leaks only under UNSAFE, and 100% of
# injected faults are detected.
BASELINED="fig_9_2 table_10_1 fig_9_3 security_poc per_syscall_views table_8_1 table_8_2 \
    fig_9_1 sensitivity ablation cache_sweep sni_check"

echo "==> experiment --json output vs checked-in baselines (small kernel)"
mkdir -p target/bench-json
for exp in $BASELINED; do
    PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 \
        ./target/release/"$exp" --json >"target/bench-json/$exp.json"
    ./target/release/json_check <"target/bench-json/$exp.json"
    if ! diff -u "BENCH_$exp.json" "target/bench-json/$exp.json"; then
        echo "ci: $exp --json drifted from BENCH_$exp.json" >&2
        echo "ci: if the change is intended, regenerate the baseline (see EXPERIMENTS.md)" >&2
        exit 1
    fi
done

# The audit path (traces, ISVs, bounded scans) also runs at paper scale,
# in the repo benchmark's `audit` workload: pin the experiments built on
# it at that scale too (BENCH_<exp>.paper.json).
PAPER_BASELINED="table_8_1 table_8_2 fig_9_1 sensitivity"

echo "==> paper-scale experiment --json output vs checked-in baselines"
for exp in $PAPER_BASELINED; do
    PERSPECTIVE_KERNEL=paper PERSPECTIVE_THREADS=4 \
        ./target/release/"$exp" --json >"target/bench-json/$exp.paper.json"
    ./target/release/json_check <"target/bench-json/$exp.paper.json"
    if ! diff -u "BENCH_$exp.paper.json" "target/bench-json/$exp.paper.json"; then
        echo "ci: paper-scale $exp --json drifted from BENCH_$exp.paper.json" >&2
        echo "ci: if the change is intended, regenerate the baseline (see EXPERIMENTS.md)" >&2
        exit 1
    fi
done

# The measurement cells themselves (every registry counter of every
# fig_9_2, fig_9_3 and table_10_1 row) at paper scale, whose kernel
# counters are larger than the small kernel's: one run_all document,
# with the fast-forward on and off, and through the cell cache cold, warm
# and verifying (the warm run decodes every cell from its entry).
PAPER_CELLS="fig_9_2,fig_9_3,table_10_1"
echo "==> paper-scale cell documents vs BENCH_cells.paper.json (fast-forward on and off, cache)"
rm -rf target/persp-cache-ci-paper
for run in fast slow cache-on cache-on cache-verify; do
    env_args=(PERSPECTIVE_KERNEL=paper PERSPECTIVE_THREADS=4)
    case $run in
    slow) env_args+=(PERSPECTIVE_NO_FASTFWD=1) ;;
    cache-*) env_args+=(PERSPECTIVE_CACHE="${run#cache-}" PERSPECTIVE_CACHE_DIR=target/persp-cache-ci-paper) ;;
    esac
    env "${env_args[@]}" ./target/release/run_all --json --only "$PAPER_CELLS" \
        >"target/bench-json/cells.paper.$run.json"
    ./target/release/json_check <"target/bench-json/cells.paper.$run.json"
    if ! diff -u BENCH_cells.paper.json "target/bench-json/cells.paper.$run.json"; then
        echo "ci: paper-scale cells ($run) drifted from BENCH_cells.paper.json" >&2
        echo "ci: with the fast-forward off or the cache on, this is a bug, not a baseline drift" >&2
        exit 1
    fi
done
if ! ls target/persp-cache-ci-paper/cell-*.json >/dev/null 2>&1; then
    echo "ci: paper-scale cache runs completed but no cell entries were written" >&2
    exit 1
fi

echo "==> paper-scale transcripts vs experiments_output.txt and experiments_extra.txt"
# The human-readable output is pinned too: run_all's transcript covers
# every experiment bin, and the extra transcript covers sensitivity and
# the full --all scheme set of fig_9_2. run_all's closing lines (the
# completion note and the per-bin wall-clock table) differ run to run, so
# everything from "All experiments completed" on is cut from both sides.
strip_footer() { sed '/^All experiments completed/,$d' "$@"; }
PERSPECTIVE_KERNEL=paper PERSPECTIVE_THREADS=4 ./target/release/run_all \
    | strip_footer >target/bench-json/run_all.txt
if ! diff -u <(strip_footer experiments_output.txt) target/bench-json/run_all.txt; then
    echo "ci: run_all's transcript drifted from experiments_output.txt" >&2
    exit 1
fi
{
    PERSPECTIVE_KERNEL=paper PERSPECTIVE_THREADS=4 ./target/release/sensitivity
    PERSPECTIVE_KERNEL=paper PERSPECTIVE_THREADS=4 ./target/release/fig_9_2 --all
} >target/bench-json/extra.txt
if ! diff -u experiments_extra.txt target/bench-json/extra.txt; then
    echo "ci: sensitivity + fig_9_2 --all drifted from experiments_extra.txt" >&2
    exit 1
fi

echo "==> fast-vs-slow differential smoke cell (PERSPECTIVE_NO_FASTFWD=1)"
# The idle-cycle fast-forward must be invisible in every serialized
# counter: the cycle-by-cycle slow path has to reproduce the checked-in
# baselines byte for byte. That includes security_poc: every PoC runs on
# the core RunConfig parses, so this cell runs the attacks on the slow
# path too.
for exp in $BASELINED; do
    PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 PERSPECTIVE_NO_FASTFWD=1 \
        ./target/release/"$exp" --json >"target/bench-json/$exp.slow.json"
    ./target/release/json_check <"target/bench-json/$exp.slow.json"
    if ! diff -u "BENCH_$exp.json" "target/bench-json/$exp.slow.json"; then
        echo "ci: $exp --json differs with the fast-forward disabled" >&2
        echo "ci: the fast-forward must be cycle-exact; this is a pipeline bug, not a baseline drift" >&2
        exit 1
    fi
done

echo "==> cell cache: cold, warm, and verify runs are byte-identical (small kernel)"
# Cold-populate a throwaway cache, then re-run warm: both documents must
# match each other AND the checked-in baselines exactly (hit/miss
# counters are stderr-only observability, never part of the document).
# A verify pass then recomputes every cell and asserts the stored
# entries re-serialize byte-identically — a forgotten SIM_VERSION bump
# fails here before it can poison anyone's cache.
rm -rf target/persp-cache-ci
for exp in fig_9_2 table_10_1 fig_9_3 per_syscall_views ablation cache_sweep sensitivity; do
    for mode in on on verify; do
        PERSPECTIVE_KERNEL=small PERSPECTIVE_THREADS=4 \
            PERSPECTIVE_CACHE=$mode PERSPECTIVE_CACHE_DIR=target/persp-cache-ci \
            ./target/release/"$exp" --json >"target/bench-json/$exp.cache-$mode.json"
        ./target/release/json_check <"target/bench-json/$exp.cache-$mode.json"
        if ! diff -u "BENCH_$exp.json" "target/bench-json/$exp.cache-$mode.json"; then
            echo "ci: $exp --json differs under PERSPECTIVE_CACHE=$mode" >&2
            echo "ci: cached runs must be byte-identical to cold runs and the baseline" >&2
            exit 1
        fi
    done
done
if ! ls target/persp-cache-ci/cell-*.json >/dev/null 2>&1; then
    echo "ci: cache runs completed but no cell entries were written" >&2
    exit 1
fi

echo "==> examples vs their checked-in transcripts"
for example in audit_pipeline quickstart datacenter attack_lab tenant_isolation \
    verified_but_vulnerable; do
    cargo run --release -q --example "$example" >"target/bench-json/$example.txt"
    if ! diff -u "examples/$example.txt" "target/bench-json/$example.txt"; then
        echo "ci: the $example example drifted from examples/$example.txt" >&2
        exit 1
    fi
done

echo "ci: all gates passed"
