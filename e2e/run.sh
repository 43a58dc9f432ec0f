#!/usr/bin/env bash
# Builds the daemon and the harness from source, then runs the harness with
# the given arguments. Run from the root of a checkout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p blobseer-server --bin blobseer-server
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml --bin e2e
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
