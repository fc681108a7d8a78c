#!/usr/bin/env sh
# Full local CI for the S-SLIC workspace: build, test, then static
# analysis. Fails on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> warning gate (every target builds with zero warnings)"
# Deprecated items, unused imports and dead bindings all fail the build:
# a -D warnings build of every target must pass with no #[allow] escape
# hatches added to get there.
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --workspace --all-targets --release

echo "==> rustdoc gate (every crate documents with zero warnings)"
# A dangling intra-doc link to a deleted item builds and tests fine; only
# rustdoc sees it.
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --no-deps --workspace

echo "==> cargo test (workspace, overflow-checks on)"
cargo test --workspace -q

echo "==> benchmark build (perfbench must build and pass its tests against the library API)"
# perfbench is a package of its own, outside the workspace, so the steps
# above never compile it: without this step a library change that breaks
# the benchmark's use of the public API would surface only when it runs.
# It builds under the same zero-warning rule as every workspace target.
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --offline --manifest-path perfbench/Cargo.toml
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "==> zero-allocation gate (steady-state session frames must not touch the heap)"
# Runs under a counting global allocator; kept as a named gate so an
# allocation regression fails CI with this banner even if someone trims
# the workspace test sweep above.
cargo test -q --test zero_alloc

echo "==> colour identity (the table-driven RGB->Lab8 converter must match its f64 oracle on the full RGB cube)"
# The workspace run above checks a strided cube; the exhaustive 256^3
# comparison is #[ignore]d there because it needs an optimised build.
cargo test --release -q -p sslic-color -- --ignored

echo "==> connectivity identity (the run-length connectivity pass must match its flood-fill oracle on 1280x720 S-SLIC label maps)"
# The workspace run above checks random maps up to 40x40; the comparison on
# full-size session label maps is #[ignore]d there because it needs an
# optimised build.
cargo test --release -q -p sslic-core --lib connectivity::tests:: -- --ignored

echo "==> camera session identity (the benchmark's 1280x720 camera configuration must reproduce its pinned per-frame labels and centers)"
# The workspace run above pins 64x48 frames, which run 1-2 rows per band;
# this 10-frame warm clip runs 32 bands of 22-23 rows and full four-lane
# SWAR groups, at 1 and 2 threads, with and without preemption. It is
# #[ignore]d there because it needs an optimised build.
cargo test --release -q -p sslic-core --test session_identity -- --ignored

echo "==> sslic-analyze (token rules + overflow/alloc/determinism passes)"
mkdir -p results
# Run twice and byte-diff: the analyzer's own output is part of the
# workspace determinism contract. The SARIF log is archived for CI upload.
cargo run -q -p sslic-analyze -- \
    --json results/analyze-report-a.json \
    --format sarif --out results/analyze-a.sarif
cargo run -q -p sslic-analyze -- \
    --json results/analyze-report-b.json \
    --format sarif --out results/analyze-b.sarif >/dev/null
cmp results/analyze-report-a.json results/analyze-report-b.json
cmp results/analyze-a.sarif results/analyze-b.sarif
mv results/analyze-report-a.json results/analyze-report.json
mv results/analyze-a.sarif results/analyze.sarif
rm -f results/analyze-report-b.json results/analyze-b.sarif

echo "==> fault-injection smoke (determinism: two sweeps must match byte for byte)"
mkdir -p results
./target/release/fault_sweep --seed 7 --small \
    --json results/fault-sweep-a.json --md results/fault-sweep-a.md \
    --report results/fault-report-a.json >/dev/null
./target/release/fault_sweep --seed 7 --small \
    --json results/fault-sweep-b.json --md results/fault-sweep-b.md \
    --report results/fault-report-b.json >/dev/null
cmp results/fault-sweep-a.json results/fault-sweep-b.json
cmp results/fault-sweep-a.md results/fault-sweep-b.md
cmp results/fault-report-a.json results/fault-report-b.json
mv results/fault-sweep-a.json results/fault-sweep.json
mv results/fault-sweep-a.md results/fault-sweep.md
mv results/fault-report-a.json results/fault-report.json
rm -f results/fault-sweep-b.json results/fault-sweep-b.md results/fault-report-b.json

echo "==> recovery determinism (self-healing sweeps at 1 vs 4 threads must match byte for byte)"
# With a retry budget armed, the guard/rollback/escalation ladder must
# reproduce bit-for-bit across thread counts. Deterministic RunReports
# omit the thread count, so the reports are a plain cmp too.
./target/release/fault_sweep --seed 7 --small --threads 1 --recovery 2 \
    --json results/recovery-sweep-1t.json \
    --report results/recovery-report-1t.json >/dev/null
./target/release/fault_sweep --seed 7 --small --threads 4 --recovery 2 \
    --json results/recovery-sweep-4t.json \
    --report results/recovery-report-4t.json >/dev/null
cmp results/recovery-sweep-1t.json results/recovery-sweep-4t.json
cmp results/recovery-report-1t.json results/recovery-report-4t.json
mv results/recovery-sweep-1t.json results/recovery-sweep.json
mv results/recovery-report-1t.json results/recovery-report.json
rm -f results/recovery-sweep-4t.json results/recovery-report-4t.json

echo "==> benchmark seed (BENCH_10.json must regenerate byte for byte from every mode, thread count and kernel)"
# The committed seed pins the per-size label checksums, operation counters,
# and modeled hw traffic. Any engine change that shifts them must update
# the seed in the same commit, keeping the perf trajectory auditable. The
# seed frame is cold, so every entry point, engine thread count and assign
# kernel must reproduce it exactly. BENCH_7..9 are kept only as history for
# the `insight bench` step below.
for mode in oneshot session fleet; do
    for threads in 1 4; do
        for kernel in scalar swar; do
            ./target/release/throughput --sizes 160x120,320x240 --superpixels 150 \
                --iterations 5 --threads "$threads" --mode "$mode" \
                --kernel "$kernel" --bench-json results/bench-seed.json >/dev/null
            cmp BENCH_10.json results/bench-seed.json || {
                echo "seed mismatch: mode=$mode threads=$threads kernel=$kernel"
                exit 1
            }
        done
    done
done
rm -f results/bench-seed.json

echo "==> thread-count invariance (throughput JSON at 1 vs 4 threads must match byte for byte)"
./target/release/throughput --threads 1 --sizes 160x120,320x240 \
    --superpixels 150 --iterations 3 \
    --json results/throughput-1t.json \
    --report results/throughput-report-1t.json >/dev/null
./target/release/throughput --threads 4 --sizes 160x120,320x240 \
    --superpixels 150 --iterations 3 \
    --json results/throughput-4t.json \
    --report results/throughput-report-4t.json >/dev/null
cmp results/throughput-1t.json results/throughput-4t.json
cmp results/throughput-report-1t.json results/throughput-report-4t.json

echo "==> mode invariance (throughput JSON across oneshot/session/fleet APIs must match byte for byte)"
./target/release/throughput --threads 2 --sizes 160x120,320x240 \
    --superpixels 150 --iterations 3 --mode session \
    --json results/throughput-session.json >/dev/null
cmp results/throughput-1t.json results/throughput-session.json
./target/release/throughput --threads 2 --sizes 160x120,320x240 \
    --superpixels 150 --iterations 3 --mode fleet \
    --json results/throughput-fleet.json >/dev/null
cmp results/throughput-1t.json results/throughput-fleet.json
mv results/throughput-1t.json results/throughput.json
mv results/throughput-report-1t.json results/throughput-report.json
rm -f results/throughput-4t.json results/throughput-report-4t.json \
    results/throughput-session.json results/throughput-fleet.json

echo "==> trace determinism (JSONL + Chrome traces must be byte-identical across repeats and 1 vs 4 threads)"
./target/release/sslic dataset results/trace-ds --count 1 --width 160 --height 120 >/dev/null
trace_seg() {
    ./target/release/sslic segment results/trace-ds/000.ppm \
        --superpixels 150 --iterations 3 --algo hw8 --threads "$1" \
        --out "results/trace-ds/seg-$2" \
        --trace "results/trace-$2.jsonl" \
        --chrome-trace "results/trace-$2.chrome.json" >/dev/null
}
trace_seg 1 1a
trace_seg 1 1b
trace_seg 4 4t
cmp results/trace-1a.jsonl results/trace-1b.jsonl
cmp results/trace-1a.jsonl results/trace-4t.jsonl
cmp results/trace-1a.chrome.json results/trace-4t.chrome.json

echo "==> insight determinism (trace analysis at 1 vs 4 threads must match byte for byte)"
# The analyzer reads only logical clocks and counters, so its attribution
# tables and collapsed stacks carry no thread-dependent byte at all — no
# normalisation, plain cmp.
./target/release/sslic insight results/trace-1a.jsonl \
    --out results/insight-1t.txt --collapsed results/insight-1t.collapsed 2>/dev/null
./target/release/sslic insight results/trace-4t.jsonl \
    --out results/insight-4t.txt --collapsed results/insight-4t.collapsed 2>/dev/null
cmp results/insight-1t.txt results/insight-4t.txt
cmp results/insight-1t.collapsed results/insight-4t.collapsed
mv results/insight-1t.txt results/insight.txt
mv results/insight-1t.collapsed results/insight.collapsed
rm -f results/insight-4t.txt results/insight-4t.collapsed

mv results/trace-1a.jsonl results/trace.jsonl
mv results/trace-1a.chrome.json results/trace.chrome.json
rm -rf results/trace-ds results/trace-1b.jsonl results/trace-1b.chrome.json \
    results/trace-4t.jsonl results/trace-4t.chrome.json

echo "==> fleet determinism (serve RunReport stream at 1 vs 4 threads must match byte for byte)"
# A multi-stream wire session — two interleaved streams, a close, and a
# rebind — pumped through `sslic serve` at two engine thread counts.
# Deterministic report lines omit the thread count, so everything
# (per-stream label checksums, counters, admission tallies, queue events)
# must be byte-identical.
./target/release/sslic dataset results/fleet-ds --count 3 --width 160 --height 120 >/dev/null
./target/release/sslic framepack --out results/fleet-stream.bin \
    0:results/fleet-ds/000.ppm 1:results/fleet-ds/001.ppm \
    0:results/fleet-ds/002.ppm close:0 0:results/fleet-ds/000.ppm stats
fleet_serve() {
    ./target/release/sslic serve --superpixels 150 --iterations 3 --algo hw8 \
        --threads "$1" --slots 2 --heartbeat 2 \
        --metrics-file "results/fleet-metrics-$1t.prom" \
        < results/fleet-stream.bin \
        2>/dev/null > "results/fleet-serve-$1t.jsonl"
}
fleet_serve 1
fleet_serve 4
cmp results/fleet-serve-1t.jsonl results/fleet-serve-4t.jsonl

echo "==> telemetry determinism (Prometheus exposition and serve analysis must match byte for byte)"
# The metrics file and the insight analysis of the serve stream carry no
# thread-dependent field either, so both are plain cmp.
cmp results/fleet-metrics-1t.prom results/fleet-metrics-4t.prom
grep sslic_fleet_frame_latency_bucket results/fleet-metrics-1t.prom >/dev/null
./target/release/sslic insight results/fleet-serve-1t.jsonl \
    --out results/fleet-insight-1t.txt 2>/dev/null
./target/release/sslic insight results/fleet-serve-4t.jsonl \
    --out results/fleet-insight-4t.txt 2>/dev/null
cmp results/fleet-insight-1t.txt results/fleet-insight-4t.txt
mv results/fleet-metrics-1t.prom results/fleet-metrics.prom
mv results/fleet-insight-1t.txt results/fleet-insight.txt
mv results/fleet-serve-1t.jsonl results/fleet-serve.jsonl
rm -rf results/fleet-ds results/fleet-stream.bin results/fleet-serve-4t.jsonl \
    results/fleet-metrics-4t.prom results/fleet-insight-4t.txt

echo "==> kernel identity (scalar and SWAR assign kernels, and SLIC-CPA at 1 and 4 threads, must emit byte-identical labels)"
# The packed fixed-point assign kernel is bit-identical to the scalar
# reference loop by contract. Segment one frame with each kernel forced
# and byte-diff the 16-bit label maps — any divergence fails CI here
# before the pinned-checksum suites even run. At P = 3 the first subset
# member of a 160-wide row (y·160 mod 3) rotates from row to row; at
# P = 2 every row starts at the same column; P = 1 walks every column,
# the one-subset walk SLIC-PPA takes.
./target/release/sslic dataset results/kernel-ds --count 1 --width 160 --height 120 >/dev/null
kernel_seg() {
    ./target/release/sslic segment results/kernel-ds/000.ppm \
        --superpixels 150 --iterations 3 --algo hw8 --kernel "$1" \
        --subsets "$2" --threads "$3" \
        --out "results/kernel-ds/seg-$1-$2-$3" >/dev/null
}
for subsets in 1 2 3; do
    for threads in 1 4; do
        kernel_seg scalar "$subsets" "$threads"
        kernel_seg swar "$subsets" "$threads"
        cmp "results/kernel-ds/seg-scalar-$subsets-$threads.labels.pgm" \
            "results/kernel-ds/seg-swar-$subsets-$threads.labels.pgm"
    done
done
# The benchmark's camera-720p configuration: K = 600 over 1280x720 at
# P = 2 puts about 20 subset members in a grid-cell run, against about 6
# in the 160x120 frame above, so full four-lane groups dominate.
./target/release/sslic dataset results/kernel-ds/720p --count 1 --width 1280 --height 720 >/dev/null
for threads in 1 4; do
    for kernel in scalar swar; do
        ./target/release/sslic segment results/kernel-ds/720p/000.ppm \
            --superpixels 600 --iterations 5 --algo hw8 --kernel "$kernel" \
            --subsets 2 --threads "$threads" \
            --out "results/kernel-ds/seg720-$kernel-$threads" >/dev/null
    done
    cmp "results/kernel-ds/seg720-scalar-$threads.labels.pgm" \
        "results/kernel-ds/seg720-swar-$threads.labels.pgm"
done
# serve-qvga-mux's geometry: K = 600 over 320x240 at P = 2 puts 5 or 6
# subset members in a grid-cell run, so every run ends in a two-lane tail
# group.
./target/release/sslic dataset results/kernel-ds/qvga --count 1 --width 320 --height 240 >/dev/null
for threads in 1 4; do
    for kernel in scalar swar; do
        ./target/release/sslic segment results/kernel-ds/qvga/000.ppm \
            --superpixels 600 --iterations 5 --algo hw8 --kernel "$kernel" \
            --subsets 2 --threads "$threads" \
            --out "results/kernel-ds/segqvga-$kernel-$threads" >/dev/null
    done
    cmp "results/kernel-ds/segqvga-scalar-$threads.labels.pgm" \
        "results/kernel-ds/segqvga-swar-$threads.labels.pgm"
done
# SLIC-CPA's window scan runs band by band: at 1280x720 and K = 600 an
# 81-row window spans four or five of the 22-23-row bands, where the
# 64x48 pins only ever see bands of one or two rows.
for threads in 1 4; do
    ./target/release/sslic segment results/kernel-ds/720p/000.ppm \
        --superpixels 600 --iterations 5 --algo slic --threads "$threads" \
        --out "results/kernel-ds/cpa720-$threads" >/dev/null
done
cmp results/kernel-ds/cpa720-1.labels.pgm results/kernel-ds/cpa720-4.labels.pgm
rm -rf results/kernel-ds

echo "==> paper tables (the analytic hw model's tables and ablations regenerate byte for byte)"
# These six reports are pure functions of the analytic accelerator model:
# no wall clock and no engine run. The artifact gate below pins them to
# their committed bytes, so a change to the hw schedule that moves a paper
# number fails CI unless the report is committed with it.
for bin in table3 table4 table5 fig6 ablation_dma ablation_hw; do
    ./target/release/"$bin" > "results/$bin.txt"
done

echo "==> bench trajectory (insight bench must see no counter regression across PR seeds)"
./target/release/sslic insight bench BENCH_7.json BENCH_8.json BENCH_9.json \
    BENCH_10.json > results/bench-trajectory.txt

echo "==> artifact identity (every regenerated results/ file must match its committed bytes)"
# The steps above rewrite every committed artifact under results/. A
# change that means to move one stages it first, so this compares against
# the index. The analyzer report is excluded: it carries source line
# numbers, which move with any edit.
if git rev-parse --git-dir >/dev/null 2>&1; then
    git diff --exit-code --stat -- results/ ':!results/analyze-report.json'
fi

echo "CI OK"
