#!/usr/bin/env bash
# Offline CI gate: formatting, clippy (workspace lints), the sor-check
# lint driver, and the test suite. Everything runs against the vendored
# dependencies under vendor/ — no network, no registry.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Optional ThreadSanitizer leg (nightly-only, allowed to fail — see the
# `tsan` job in .github/workflows/ci.yml). SOR_TSAN=1 runs it after the
# normal gate; SOR_TSAN_ONLY=1 runs it and exits, so the CI job doesn't
# repeat the stable-toolchain work the `checks` job already did.
run_tsan() {
  echo "==> ThreadSanitizer (nightly, -Zsanitizer=thread)"
  if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "tsan: no nightly toolchain installed; skipping"
    return 0
  fi
  if ! rustup component list --toolchain nightly 2>/dev/null | grep -q "^rust-src (installed)"; then
    echo "tsan: nightly rust-src component missing (-Zbuild-std needs it); skipping"
    return 0
  fi
  local host
  host="$(rustc -vV | sed -n 's/^host: //p')"
  mkdir -p target/tsan
  # TSan needs the sanitizer runtime in std, hence -Zbuild-std and an
  # explicit target triple. The suites under test are the ones that
  # actually exercise cross-thread interleavings: the sharded path cache,
  # the obs metrics registry, and the lock-free log histogram.
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$host" \
    -p sor-serve --test cache_concurrency \
    -p sor-obs --test concurrency \
    -p sor-obs --test loghist_concurrency \
    -- --test-threads=4 2>&1 | tee target/tsan/tsan.log
}

if [ "${SOR_TSAN_ONLY:-0}" = "1" ]; then
  run_tsan
  exit 0
fi

# The gate must leave the work tree as it found it. Record its state
# (status plus a hash of the diff, so edits to an already-modified file
# count too) and compare at the end; outside a git work tree there is
# nothing to compare.
tree_state() {
  git status --porcelain
  git diff | sha256sum
}
tree_before=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tree_before="$(tree_state)"
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace ([workspace.lints]: forbid unsafe_code, deny unwrap_used and truncating casts)"
cargo clippy --workspace --all-targets

echo "==> sor-check (lexical rules + semantic pass; any finding fails)"
cargo run -q -p sor-check

echo "==> cargo doc (broken, ambiguous or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1) and workspace tests"
cargo test -q
cargo test -q --workspace

echo "==> sorbench tests (its own workspace: the workspace test run does not compile it)"
# --locked: an edit to a crate sorbench builds that would rewrite
# sorbench/Cargo.lock fails here, naming the lock file.
cargo test -q --offline --locked --manifest-path sorbench/Cargo.toml

echo "==> sorbench output check (every workload 1 s at seed 1; no timing is gated)"
# sorbench checks every snapshot and solve it produces; its last stdout
# line must report them all correct and none failed.
for w in serve-warm serve-churn eval-perm eval-tm; do
  if ! out="$(cargo run --release -q --offline --locked --manifest-path sorbench/Cargo.toml -- \
    --workload "$w" --seconds 1 --seed 1)"; then
    echo "sorbench $w exited non-zero: $(printf '%s\n' "$out" | tail -n 1)"
    exit 1
  fi
  last="$(printf '%s\n' "$out" | tail -n 1)"
  case "$last" in
    *'"correct": true,'*'"failed": 0,'*) echo "sorbench $w: all outputs correct" ;;
    *)
      echo "sorbench $w failed its output check: $last"
      exit 1
      ;;
  esac
done

echo "==> instrumented smoke experiment (BENCH_*.json artifact)"
mkdir -p target/obs
cargo run -q --release -p sor-bench --bin tables -- \
  --exp e1 --quick --metrics-dir target/obs > /dev/null
test -s target/obs/BENCH_e1.json

echo "==> full E-series tables (stdout must equal the committed results_full.txt)"
mkdir -p target/tables
# Seeded and deterministic: any difference is a change in what the
# experiments measure, which EXPERIMENTS.md quotes from this file.
if ! cargo run -q --release -p sor-bench --bin tables -- --exp all \
  > target/tables/full.txt 2> target/tables/full.err; then
  echo "tables --exp all exited non-zero:"
  tail -n 5 target/tables/full.err
  exit 1
fi
if ! diff -u results_full.txt target/tables/full.txt; then
  echo "results_full.txt is stale: review the diff, update the numbers"
  echo "EXPERIMENTS.md quotes, then re-run"
  echo "  cargo run -q --release -p sor-bench --bin tables -- --exp all > results_full.txt"
  echo "and commit the result."
  exit 1
fi

echo "==> online serving smoke (5 epochs, failure + recovery, snapshot + timeline artifacts)"
mkdir -p target/serve
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --compare-fresh --seed 7 --quiet \
  --metrics-out target/serve/serve-metrics.json \
  --timeline-out target/serve/serve-timeline.json > target/serve/serve-snapshot.txt
test -s target/serve/serve-snapshot.txt
test -s target/serve/serve-metrics.json
grep -q "hits=" target/serve/serve-snapshot.txt
test -s target/serve/serve-timeline.json
grep -q '"epochs"' target/serve/serve-timeline.json
grep -q '"sor-timeline/1"' target/serve/serve-timeline.json

echo "==> compact tables smoke (usage errors, trade-off table)"
mkdir -p target/compact
# Serving publishes one snapshot format; the retired selector is an
# unknown flag, and unknown flags are usage errors.
if cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 2 --quiet --snapshot-format compact > /dev/null 2>&1; then
  echo "expected --snapshot-format to be rejected as an unknown flag"
  exit 1
fi
# Inert flag combinations are usage errors, not silent no-ops.
if cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 2 --quiet --journal-epochs 4 > /dev/null 2>&1; then
  echo "expected --journal-epochs without --journal-out to be rejected"
  exit 1
fi
# The trade-off table reports both encodings' footprints per sparsity.
cargo run -q --release --bin sor -- compact --graph abilene --max-s 3 \
  --quiet > target/compact/tradeoff.txt
grep -q "compact b/n" target/compact/tradeoff.txt
grep -q "explicit b/n" target/compact/tradeoff.txt

echo "==> flight recorder smoke (byte-neutral stdout, breach dumps, forensics attribution)"
mkdir -p target/journal
# Attaching the observer must not change published output: the same
# seeded run with and without --journal-out/--timeline-out emits
# byte-identical stdout.
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --seed 9 --quiet > target/journal/plain.out
cargo run -q --release --bin sor -- serve --graph expander:16x4 \
  --epochs 5 --rate 8 --patterns 2 --fail-at 2 --restore-after 2 \
  --seed 9 --quiet --journal-out target/journal/journal.json \
  --timeline-out target/journal/timeline.json > target/journal/attached.out
cmp target/journal/plain.out target/journal/attached.out
test -s target/journal/journal.json
grep -q '"sor-journal/3"' target/journal/journal.json
grep -q '"sor-timeline/1"' target/journal/timeline.json
# The full-run dump, not only a breach dump, must analyze cleanly.
cargo run -q --release --bin sor -- forensics \
  --journal target/journal/journal.json \
  --json target/journal/full-forensics.json > target/journal/full-forensics.txt
grep -q '"sor-forensics/1"' target/journal/full-forensics.json
# The retired sor-journal/2 format (separate epoch_begin/admit/reopt
# events) is refused, not misread.
printf '%s\n' '{"format":"sor-journal/2","recorded":1,"dropped":0,"events":[' \
  '{"seq":0,"type":"epoch_begin","epoch":0,"queue_depth":0}]}' > target/journal/v2.json
if cargo run -q --release --bin sor -- forensics \
  --journal target/journal/v2.json > /dev/null 2>&1; then
  echo "expected sor forensics to refuse a sor-journal/2 document"
  exit 1
fi
# An unreachable hit-rate SLO breaches deterministically, so the engine
# writes breach-stamped ring dumps; forensics must attribute the run's
# congestion movement to the injected failure.
rm -f target/journal/breach-epoch*.json
cargo run -q --release --bin sor -- serve --graph grid:4x4 \
  --epochs 8 --rate 4 --patterns 1 --pattern-pairs 2 \
  --fail-at 3 --restore-after 2 --seed 11 --quiet \
  --slo-min-hit-rate 2.0 \
  --dump-on-breach target/journal/breach > /dev/null
dump="$(ls target/journal/breach-epoch*.json | tail -n 1)"
test -s "$dump"
grep -q '"sor-journal/3"' "$dump"
grep -q '"reason":"slo-breach"' "$dump"
cargo run -q --release --bin sor -- forensics --journal "$dump" \
  --json target/journal/forensics.json > target/journal/forensics.txt
grep -q "top cause: failure" target/journal/forensics.txt
grep -q '"sor-forensics/1"' target/journal/forensics.json
grep -q '"top_cause":"failure"' target/journal/forensics.json

echo "==> telemetry scrape smoke (loopback HTTP exposition via std TCP client)"
cargo test -q --release -p sor-serve --test telemetry_scrape

echo "==> perf gate (exact work + quality vs BENCH_BASELINE.json)"
cargo run -q --release -p sor-bench --bin perf

if [ "${SOR_TSAN:-0}" = "1" ]; then
  run_tsan
fi

if [ -n "$tree_before" ] && [ "$(tree_state)" != "$tree_before" ]; then
  echo "ci.sh changed the tracked tree; every artifact belongs under target/:"
  git status --short
  exit 1
fi

echo "CI OK"
