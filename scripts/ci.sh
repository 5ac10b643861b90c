#!/usr/bin/env bash
# Hermetic CI: build and test fully offline, then verify the dependency
# graph contains only in-tree path crates. Any dependency that resolves to
# a registry, git, or other non-path source fails the build — that is the
# workspace's zero-external-dependency guarantee.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> offline release build (all targets)"
cargo build --release --offline --all-targets

echo "==> rustfmt (workspace members; perfbench is its own workspace)"
cargo fmt --all -- --check

echo "==> clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> rustdoc (workspace, warnings are errors)"
# Broken or ambiguous intra-doc links, and public docs linking private
# items, fail here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> perfbench build"
# The benchmark is its own workspace compiled against these crates by
# path; an API change that breaks it must fail here, not at bench time.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> offline test suite"
test_log=$(mktemp)
cargo test -q --offline | tee "$test_log"

echo "==> test-count floor"
# The suite must never silently shrink: the floor is the passing-test
# count at the time of the last change to it. Raise it when adding tests.
TEST_FLOOR=668
total=$(grep -oE '[0-9]+ passed' "$test_log" | awk '{s+=$1} END {print s+0}')
rm -f "$test_log"
if [ "$total" -lt "$TEST_FLOOR" ]; then
    echo "ERROR: only $total tests passed; floor is $TEST_FLOOR" >&2
    exit 1
fi
echo "OK: $total tests (floor $TEST_FLOOR)"

echo "==> dependency source guard"
# Every package in the resolved graph must have "source": null (a path
# dependency / workspace member). Registry packages carry a
# "registry+https://..." source, git packages "git+...".
metadata=$(cargo metadata --format-version 1 --offline)
violations=$(printf '%s' "$metadata" | python3 -c '
import json, sys
meta = json.load(sys.stdin)
bad = ["{} {} ({})".format(p["name"], p["version"], p["source"])
       for p in meta["packages"] if p["source"] is not None]
print("\n".join(bad))
')
if [ -n "$violations" ]; then
    echo "ERROR: non-path dependencies found:" >&2
    echo "$violations" >&2
    exit 1
fi
echo "OK: $(printf '%s' "$metadata" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["packages"]))') packages, all path-only"

echo "==> serial golden pins (release build)"
# The state-vector expectation bits pinned since the split re/im refactor
# must hold under release optimizations too, not only in the debug suite.
# So must the half-register evaluator's equality with the full-register
# reference: its mirror kernels are exact only because IEEE addition is
# commutative and nothing is contracted into an FMA. The memoized
# warm-start trace must equal the bare trace under the same optimizations.
# The golden artifact, checkpoint-bytes and checkpoint-state digests pin
# Adam's no-FMA arithmetic, so they run here as well. The blocked matmul,
# the transpose-free Aᵀ·G, the transpose and the fused Adam step are
# vectorized only under optimization, so their bit oracles (`kernels_*`
# and the fused-Adam reference) run here too.
cargo test --release --offline -q -p qaoa-gnn --test golden_serial >/dev/null
cargo test --release --offline -q -p qaoa --test bit_identity >/dev/null
cargo test --release --offline -q -p qaoa --test memo_identity >/dev/null
cargo test --release --offline -q -p qaoa-gnn --lib golden_digest >/dev/null
cargo test --release --offline -q -p tensor --lib kernels >/dev/null
cargo test --release --offline -q -p tensor --lib fused_adam_step_is_bit_identical_to_reference >/dev/null
echo "OK: serial state-vector path, tensor kernels and golden digests match their pinned bits"

echo "==> artifact smoke (train tiny, save, reload in a fresh process, diff bits)"
cargo run --release --offline -q -p qaoa-gnn-bench --bin artifact_smoke
echo "OK: saved artifacts reproduce in-memory predictions bit-exactly"

echo "==> serving smoke (env-armed fault, degradation ladder, bit-identity)"
cargo run --release --offline -q -p qaoa-gnn-bench --bin serve_smoke
echo "OK: guarded serving degrades visibly and matches the raw path bit-exactly"

echo "==> serve_load smoke (concurrent loop: zero drops, mid-traffic hot-swaps, bounded shed)"
# CI-sized closed-loop + saturation-burst run. The bin itself asserts zero
# dropped requests, zero typed rejections, all 3 hot-swaps succeeding
# mid-traffic (≥2 artifact generations observed in responses), a bounded
# queue, and a non-empty shed fraction under the forced-saturation burst.
# Two workers pin more than one thread on the queue's claim rule; the
# default resolves to one worker on a two-core host.
cargo run --release --offline -q -p qaoa-gnn-bench --bin serve_load -- --smoke --workers 2
echo "OK: serving loop sheds under saturation and hot-swaps without dropping requests"

echo "==> chaos smoke (seeded fault schedule: GNN-rung poison, refused swap, bit-identical replay)"
# Two CI-sized soaks of the same seed under a scripted fault schedule. The
# bin swaps at the start of the schedule's hot_swap window and itself
# asserts exactly-once replies, that the default seed refuses that swap, a
# Ready end state, and a bit-identical outcome digest across both runs.
cargo run --release --offline -q -p qaoa-gnn-bench --bin chaos_soak -- --smoke
echo "OK: serving loop survives scripted chaos deterministically"

echo "==> crash smoke (SIGKILL the pipeline at scripted wall-phases, resume, diff bits)"
# CI-sized kill-and-resume ladder: a control pipeline runs to completion,
# then a fresh run is SIGKILLed mid-label, mid-epoch, mid-checkpoint-write
# and mid-artifact-save (stall failpoints hold each protocol window open),
# relaunched after every kill, and the final artifact must be byte-identical
# to the control. The bin also reports per-epoch checkpoint overhead.
cargo run --release --offline -q -p qaoa-gnn-bench --bin crash_resume -- --smoke
echo "OK: killed-and-resumed runs reproduce the control artifact byte for byte"

echo "All checks passed."
