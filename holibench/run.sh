#!/usr/bin/env bash
# Build holibench when needed, then run it with the given arguments.
#
# usage, from the repository root:
#   bash holibench/run.sh --workload predict_lr --seed 1 --seconds 30 --trace 0
#
# `cargo run` would recompile the serve crate and holibench on every run in
# a checkout that is not a git repository: the serve crate's build script
# watches `.git/HEAD`, and cargo treats a watched file that is missing as
# changed. So cargo builds only when the binary is missing or older than a
# source file it is built from.
set -euo pipefail

target="${CARGO_TARGET_DIR:-holibench/target}"
bin="$target/release/holibench"
newer="$(find holibench crates vendor -path holibench/target -prune -o -type f -newer "$bin" -print -quit 2>/dev/null || true)"
if [[ ! -x "$bin" || -n "$newer" ]]; then
    cargo build --release --offline --quiet --manifest-path holibench/Cargo.toml
fi
exec "$bin" "$@"
