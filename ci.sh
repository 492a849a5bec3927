#!/usr/bin/env bash
# Full CI gate for the workspace.
#
# Tier 1 (must always pass, run first):
#   cargo build --release
#   cargo test -q
# Then the e2e benchmark's seven-workload smoke (its own workspace under
# e2e/), the member crates' own tests (cargo test -q --workspace), the
# owned dependency graph (`cargo tree` of the whole workspace, every
# edge kind, and of e2e names p3c-* path crates only), a JSON parser's
# verdict on `p3c cluster -o json` and on the `--metrics-json` file of a
# `--scheduler dag` MR run, the tier-1 suite re-run under the
# multi-process shuffle backend (P3C_BACKEND=process:2), the
# parallel-kernel bit-identity tests swept over P3C_THREADS,
# a stdin-scripted `p3c serve` session exercising the service line
# protocol under a tight LRU cache budget, a `p3c cluster` smoke holding
# MR-Light to serial Light's output at the Figure 7 shape, a
# crash-recovery smoke (SIGKILL a durable serve mid-session, twice, restart on
# the same data dir, and require the recovered fingerprint to match the
# pre-kill one), a kernel-tier check (on an AVX2 host, `p3c` built for
# x86-64-v3 must print the default build's bytes), and a rustdoc pass
# with warnings denied (missing docs on the data-plane crates and broken
# intra-doc links fail the build).
# Tier 2 (lint + formatting + invariants):
#   cargo clippy --workspace --all-targets -- -D warnings
#   cargo fmt --check
#   cargo run -p p3c-audit          (determinism/concurrency/lock invariants,
#                                    every manifest dependency a path crate)
#   cargo test --features lockcheck (tier-1 under runtime lock-rank asserts)
#   loom models                     (6: WorkQueue claims, WorkQueue +
#                                    BlockPartials merge order — the pool
#                                    the engine's phases run on — two
#                                    map-output tracker races, two
#                                    admission condvar protocols)
#   cargo +nightly miri             (dataset byte paths; skipped if absent)
#   ThreadSanitizer probe           (service + distrib; skipped if absent)
set -euo pipefail
cd "$(dirname "$0")"

# Keep cargo's home off the network-less home directory.
export CARGO_HOME="${CARGO_HOME:-/tmp/carghome}"

echo "==> tier 1: cargo build --release"
cargo build --release

echo "==> tier 1: cargo test -q"
cargo test -q

# The repo benchmark's own smoke (e2e/README.md): all seven workloads at
# 1/20 scale under structure seeds 7 and 8, asserting which layers each
# workload exercises and bypasses, determinism across passes, E4SC and
# the traced replay. The package is a workspace of its own (its build
# lands in e2e/target), so the root `cargo test` never runs it. It runs
# right after tier 1: a change that breaks the benchmark's build or a
# workload fails here in minutes, not after the slower legs below.
echo "==> e2e benchmark smoke: cargo test --manifest-path e2e/Cargo.toml"
cargo test -q --offline --manifest-path e2e/Cargo.toml

# `cargo test` at the root runs the root package only. The member
# crates' own unit and integration tests (the proving and
# candidate-generation jobs' `mr::coregen` tests, the naive Algorithm 1
# oracle that is core generation's independent check,
# crates/core/tests/support_counting.rs, the CLI's process-level
# crates/cli/tests/truncation_warning.rs, ...) gate here; the root
# package just ran.
echo "==> member crates: cargo test -q --workspace"
cargo test -q --workspace --exclude p3c-suite

# Workspace binaries the later legs invoke (the p3c CLI that hosts the
# worker subcommand, the audit tool) are not part of the root package;
# build them all explicitly.
echo "==> workspace binaries: cargo build --release --workspace"
cargo build --release --workspace

# The dependency graph is owned (DESIGN.md §1): every crate the
# workspace builds — normal, build and dev edges alike — and everything
# the repo benchmark links is a path crate of this repository. The
# audit's manifest rule reads the declarations; this reads what Cargo
# resolved from them.
echo "==> owned graph: the workspace's whole graph and e2e's closure are p3c-* path crates"
for target in "--workspace -e all" "-e normal --manifest-path e2e/Cargo.toml"; do
    # shellcheck disable=SC2086 # several words on purpose
    closure=$(cargo tree --offline --prefix none $target)
    # `--workspace` separates the members' trees with blank lines.
    if grep -v -e '^p3c-' -e '^$' <<< "$closure"; then
        echo "not a p3c-* crate in the graph of: $target" >&2
        exit 1
    fi
done

# `-o json` prints exactly one document; any JSON parser must take it,
# and the `--metrics-json` file of a `--scheduler dag` MR run (job rows
# plus the recorded chains) too.
if command -v python3 > /dev/null; then
    echo "==> json smoke: p3c cluster -o json and --metrics-json parse"
    ./target/release/p3c cluster --synthetic 1500x8 -k 2 --seed 5 -o json \
        | python3 -m json.tool > /dev/null
    mkdir -p target/ci
    ./target/release/p3c cluster --synthetic 1500x8 -k 2 --seed 5 -a mr --scheduler dag \
        --metrics-json target/ci/metrics-dag.json > /dev/null
    python3 -m json.tool target/ci/metrics-dag.json > /dev/null
else
    echo "==> json smoke: python3 unavailable — skipped"
fi

# The whole tier-1 suite again, but with every engine defaulting to the
# multi-process backend: two worker subprocesses per engine holding the
# shuffle behind the length-prefixed TCP protocol (DESIGN.md §12). The
# suite's byte-identity assertions then hold across the real data plane.
echo "==> process backend (2 workers): tier-1 suite over the TCP shuffle"
P3C_BACKEND=process:2 P3C_WORKER_BIN="$PWD/target/release/p3c" cargo test -q

# The parallel kernels must be bit-identical across thread counts
# (DESIGN.md §11). The tests sweep threads {1, 2, 8} internally; the
# env sweep additionally pins the P3C_THREADS-driven default path.
echo "==> thread matrix: parallel kernel bit-identity under P3C_THREADS"
for t in 1 2 8; do
    P3C_THREADS=$t cargo test -q --test parallel_kernels > /dev/null
done

# The clustering service end to end through the line protocol: three
# appends and re-clusters on a stdin-scripted `p3c serve` under a cache
# budget small enough to force evictions, the in-process
# incremental-vs-batch identity check, then a retract, a full
# re-cluster over spilled blocks and the check again. The greps pin the
# contract: clusters come back, both checks find the models
# byte-identical, and the store actually evicted and reloaded spilled
# blocks.
echo "==> service smoke: p3c serve line protocol + spill eviction"
./target/release/p3c serve --cache-budget 64k > target/ci/serve-smoke.log <<'EOF'
create demo
append demo --synthetic 1200x8 --clusters 3 --seed 7
recluster demo
append demo --synthetic 900x8 --clusters 3 --seed 8
recluster demo
append demo --synthetic 700x8 --clusters 3 --seed 9
recluster demo
verify demo
retract demo 0
recluster demo
verify demo
stats
quit
EOF
grep -q "clusters" target/ci/serve-smoke.log
grep -q "incremental and batch models identical" target/ci/serve-smoke.log
test "$(grep -c "incremental and batch models identical" target/ci/serve-smoke.log)" -eq 2
grep -Eq "evictions=[1-9]" target/ci/serve-smoke.log
grep -Eq "spill_loads=[1-9]" target/ci/serve-smoke.log

# MR-Light and serial Light run one core-generation loop (its
# independent check is the naive Algorithm 1 oracle in
# crates/core/src/oracle.rs); what this leg guards is the job runner —
# splits, shuffle, the proving, membership and inspection jobs —
# against the inline runner, at the Figure 7 shape where multi-level
# candidate collection once passed the candidate cap. The two must
# print the same clusters and E4SC — stdout differs in its first word,
# the algorithm name, only — and neither may warn.
echo "==> cluster smoke: mr-light prints what light prints at 200000x50"
for algo in mr-light light; do
    ./target/release/p3c cluster --synthetic 200000x50 -k 5 --noise 0.1 --seed 7 -e -t 2 \
        -a "$algo" > "target/ci/cluster-$algo.out" 2> "target/ci/cluster-$algo.err"
    test ! -s "target/ci/cluster-$algo.err"
done
grep -q "^mr-light: 5 clusters" target/ci/cluster-mr-light.out
diff <(sed '1s/^mr-light: //' target/ci/cluster-mr-light.out) \
    <(sed '1s/^light: //' target/ci/cluster-light.out)

# The full pipeline on one 8192-row split: P3C+-MR's EM folds the same
# 512-row block partials as P3C+'s, and MVB's median of split estimates
# is the one split's estimate, so mr prints what p3cplus prints.
echo "==> cluster smoke: mr prints what p3cplus prints on one split (6000x20)"
for algo in mr p3cplus; do
    ./target/release/p3c cluster --synthetic 6000x20 -k 3 --seed 1 -e \
        -a "$algo" > "target/ci/cluster-$algo.out" 2> "target/ci/cluster-$algo.err"
    test ! -s "target/ci/cluster-$algo.err"
done
diff <(sed '1s/^mr: //' target/ci/cluster-mr.out) \
    <(sed '1s/^p3c+: //' target/ci/cluster-p3cplus.out)

# The kernels' AVX2 tier is bit-identical to the baseline (DESIGN.md
# §13). A second `p3c` built for x86-64-v3 lets the compiler use AVX2,
# FMA and POPCNT in every crate, not only in the five kernel twins, so a
# contraction or reassociation anywhere in the program would change
# stdout here.
echo "==> kernel tiers: p3c built for x86-64-v3 prints the default build's bytes"
if grep -qw avx2 /proc/cpuinfo; then
    RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/ci/x86-64-v3 \
        cargo build --release -q -p p3c-cli
    for algo in p3cplus mr mr-light light; do
        for seed in 1 2; do
            args=(cluster --synthetic 20000x50 --clusters 5 --noise 0.1 --seed "$seed" -a "$algo")
            cmp <(./target/release/p3c "${args[@]}") \
                <(target/ci/x86-64-v3/release/p3c "${args[@]}")
        done
    done
else
    echo "    no avx2 in /proc/cpuinfo — skipped"
fi

# Crash recovery end to end through the real binary, two cycles. A
# durable serve is SIGKILLed after journaling two appends and publishing
# a model — no shutdown path runs. A second serve on the same data
# directory must report the recovery, re-cluster to the *same
# fingerprint* and pass the incremental-vs-batch verify (DESIGN.md §16);
# it then appends two blocks, retracts the first and re-clusters, which
# at --snapshot-every 2 rolls a snapshot: a new journal segment, the
# first block's segment compacted and deleted. It is SIGKILLed too, and
# a third serve must recover its fingerprint from segments the earlier
# processes wrote. stdin is a FIFO this script holds open on fd 3 until
# after the kill, so the kill lands mid-connection and nothing waits on
# an idle feeder.
echo "==> crash smoke: SIGKILL durable serve twice, restart, fingerprint identity"
rm -rf target/ci/serve-data
# serve_then_kill LOG FINGERPRINTS COMMAND... — runs a durable serve fed
# COMMANDs, waits until LOG holds FINGERPRINTS fingerprint lines, then
# SIGKILLs it.
serve_then_kill() {
    local log=$1 want=$2
    shift 2
    rm -f target/ci/serve-crash.fifo
    mkfifo target/ci/serve-crash.fifo
    ./target/release/p3c serve --data-dir target/ci/serve-data --snapshot-every 2 \
        < target/ci/serve-crash.fifo > "$log" 2> "${log%.log}.err" &
    local pid=$!
    exec 3> target/ci/serve-crash.fifo
    printf '%s\n' "$@" >&3
    for _ in $(seq 1 100); do
        [ "$(grep -c "fingerprint=" "$log" 2> /dev/null)" -ge "$want" ] && break
        sleep 0.2
    done
    [ "$(grep -c "fingerprint=" "$log")" -ge "$want" ]
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    exec 3>&-
    rm -f target/ci/serve-crash.fifo
}
serve_then_kill target/ci/serve-crash-1.log 1 'create demo' \
    'append demo --synthetic 1200x8 --clusters 3 --seed 7' \
    'append demo --synthetic 900x8 --clusters 3 --seed 8' \
    'recluster demo'
FP_FIRST=$(grep -o "fingerprint=[0-9a-f]*" target/ci/serve-crash-1.log | head -n 1)
test "$FP_FIRST" = "fingerprint=e8f92d847249109c"
serve_then_kill target/ci/serve-crash-2.log 2 'recluster demo' 'verify demo' \
    'append demo --synthetic 700x8 --clusters 3 --seed 9' \
    'append demo --synthetic 500x8 --clusters 3 --seed 10' \
    'retract demo 0' 'recluster demo'
grep -q "recovered 1 tenant" target/ci/serve-crash-2.err
test "$(grep -o "fingerprint=[0-9a-f]*" target/ci/serve-crash-2.log | head -n 1)" = "$FP_FIRST"
grep -q "incremental and batch models identical" target/ci/serve-crash-2.log
FP_SECOND=$(grep -o "fingerprint=[0-9a-f]*" target/ci/serve-crash-2.log | sed -n 2p)
test -n "$FP_SECOND"
test "$FP_SECOND" != "$FP_FIRST"
# The roll deleted segment 0, which held the retracted block.
test ! -e target/ci/serve-data/demo/journal.bin
./target/release/p3c serve --data-dir target/ci/serve-data --snapshot-every 2 \
    > target/ci/serve-crash-3.log 2> target/ci/serve-crash-3.err <<'EOF'
recluster demo
verify demo
quit
EOF
grep -q "recovered 1 tenant" target/ci/serve-crash-3.err
test "$(grep -o "fingerprint=[0-9a-f]*" target/ci/serve-crash-3.log | head -n 1)" = "$FP_SECOND"
grep -q "incremental and batch models identical" target/ci/serve-crash-3.log

echo "==> rustdoc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# The whole workspace, not just the root package: the member crates'
# own test and bench targets are linted too.
echo "==> tier 2: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier 2: cargo fmt --check"
cargo fmt --check

echo "==> tier 2: determinism, concurrency & lock-discipline audit"
# One run covers both rule sets: the DESIGN.md §10 invariant catalog and
# the §15 lock rules (rank order + acquisition-graph acyclicity,
# blocking-under-lock, guard hygiene). Zero unwaived violations or fail.
cargo run -q -p p3c-audit

# The declared lock ranks, enforced at runtime: the lockcheck feature
# turns every RankedMutex acquisition into an assertion on a
# thread-local held-rank stack, so the whole tier-1 suite doubles as a
# dynamic probe of the §15 hierarchy.
echo "==> tier 2: lockcheck (runtime lock-rank assertions) tier-1 rerun"
cargo test -q --features lockcheck

# The byte and durability invariants, explicitly: the shared byte layer
# (appenders, bounds-checked reader, both checksums, frame head), the journal and
# snapshot files built on it (torn tails, checksum rejection, tmp+rename
# atomicity), the decoder gauntlet that drives every format through
# truncation, bit flips and hostile prefixes under an allocation gauge,
# the golden bytes of every format, and the randomized crash-recovery
# suite (random cut offsets, recovered prefix byte-identical to batch).
# All of them already run inside tier 1 or the workspace tests; this leg
# keeps them visible and independently runnable.
echo "==> tier 2: durability: byte layer, journal, decoder gauntlet, crash recovery"
cargo test -q -p p3c-dataset bytes > /dev/null
cargo test -q -p p3c-dataset journal > /dev/null
cargo test -q --test decoder_gauntlet > /dev/null
cargo test -q --test golden_bytes > /dev/null
cargo test -q --test durability_recovery > /dev/null

echo "==> tier 2: loom models (WorkQueue, WorkQueue+BlockPartials, tracker x2, admission x2)"
RUSTFLAGS="--cfg loom" cargo test -q -p p3c-mapreduce --test loom_models

# Miri catches UB on the codec/rowblock/dataset byte paths; it needs a
# nightly toolchain with the miri component, which the pinned stable
# container doesn't ship. Probe and skip gracefully rather than fail.
if cargo +nightly miri --version > /dev/null 2>&1; then
    echo "==> tier 2: cargo miri (dataset byte paths)"
    cargo +nightly miri test -p p3c-dataset
else
    echo "==> tier 2: miri unavailable (no nightly toolchain) — skipped"
fi

# ThreadSanitizer needs nightly -Z build-std; when a nightly toolchain
# with rust-src is around, sweep the lock-heavy suites (service,
# distributed backends) for data races the lexical auditor cannot see.
# The loom models cover the same protocols deterministically, so the
# probe is best-effort, never a gate on the stable container.
if cargo +nightly --version > /dev/null 2>&1 \
    && rustup component list --toolchain nightly 2> /dev/null | grep -q "rust-src (installed)"; then
    echo "==> tier 2: ThreadSanitizer probe (service + distributed tests)"
    RUSTFLAGS="-Z sanitizer=thread" RUSTDOCFLAGS="-Z sanitizer=thread" \
        cargo +nightly test -Z build-std --target x86_64-unknown-linux-gnu \
        -q -p p3c-mapreduce --lib -- service:: distrib:: || {
            echo "ThreadSanitizer probe failed" >&2
            exit 1
        }
else
    echo "==> tier 2: ThreadSanitizer unavailable (no nightly rust-src) — skipped"
fi

echo "==> CI green"
