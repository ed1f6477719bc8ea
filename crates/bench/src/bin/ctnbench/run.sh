#!/usr/bin/env bash
# Builds the programs under test (ctnd, ctnsim) and ctnbench from the
# checkout it is started in, then runs ctnbench with the given arguments:
#
#   bash crates/bench/src/bin/ctnbench/run.sh --workload paper_presets \
#        --seed 42 --seconds 12 --trace 0
#
# Start it from the repository root. All three binaries land in one target
# directory (CARGO_TARGET_DIR, default ./target), which is where ctnbench
# looks for the other two. After the first build both cargo calls are
# no-ops of a few milliseconds.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/ctnd ]; then
    echo "run.sh: start me from the root of a full checkout (no Cargo.toml / crates/ctnd here)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ctnd -p contention-scenario --bins
cargo build --release --offline --quiet \
    --manifest-path crates/bench/src/bin/ctnbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ctnbench" "$@"
