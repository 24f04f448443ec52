#!/usr/bin/env bash
# The benchmark's one command. Builds the harness package (its own
# workspace, offline, the root's release profile) and runs it:
#
#   bash bench/harness/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/harness/run.sh --smoke
#
# Build output goes to $CARGO_TARGET_DIR when set, else bench/harness/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/manet-benchmark" "$@"
