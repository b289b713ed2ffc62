#!/usr/bin/env bash
# Tier-1 verification: everything a PR must pass, fully offline.
#
#   scripts/verify.sh          # fmt + clippy + build + tests
#   scripts/verify.sh --quick  # skip fmt/clippy (tier-1 only)
#
# The workspace has no external dependencies (PRNG, timing harness and
# property generators are all in-repo), so every step below works without
# network access; CARGO_NET_OFFLINE is exported to make that a hard
# guarantee rather than an accident of the local cache.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

quick=false
case "${1:-}" in
--quick) quick=true ;;
esac

if ! $quick; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check

    # --workspace covers every member crate, fuse-obs (the observability
    # layer) included — a new crate joins fmt/clippy coverage by joining
    # the workspace, no edit here required.
    echo "==> cargo clippy (workspace, all targets, -D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --release"
cargo build --release

# The benchmark (perfbench/, its own cargo workspace) builds against the
# public API of the umbrella crate; type-check it here so an API change
# fails this gate rather than the benchmark run. --locked keeps
# perfbench/Cargo.lock untouched.
echo "==> cargo check (perfbench)"
CARGO_TARGET_DIR=target/perfbench-check cargo check --offline --locked \
    --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

# Differential smoke: run the skip and tick engines in lockstep under the
# fuse-check reference-model oracle over the full workload grid plus a
# short fixed fuzz sweep. Exits non-zero on any divergence (DESIGN.md §3f).
echo "==> fusesim check (oracle lockstep grid + fuzz smoke)"
./target/release/fusesim check --seeds 16 --quiet

# Engine smoke: the skip engine (the default) and the plain tick engine
# (--no-skip) must produce byte-identical engine-independent stats.
echo "==> skip/tick smoke (--no-skip vs default, stats must match bitwise)"
./target/release/fusesim sweep --workloads ATAX,GEMM --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --threads 2 --stats-json /tmp/fuse-verify-skip.json >/dev/null
./target/release/fusesim sweep --workloads ATAX,GEMM --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --threads 2 --no-skip \
    --stats-json /tmp/fuse-verify-tick.json >/dev/null
diff /tmp/fuse-verify-skip.json /tmp/fuse-verify-tick.json

# Result-cache round trip: the fig13 acceptance grid (21 workloads x
# {L1-SRAM, Dy-FUSE}) cold then warm into a fresh cache directory. The
# warm pass must answer all 42 cells from the store — zero simulations —
# and reproduce the engine-independent stats byte for byte. The engine
# is not a key axis, so a third, --no-skip pass must hit the same 42
# entries. The store must then pass its own integrity check (DESIGN.md
# §3h).
echo "==> result cache round trip (fig13 grid cold, warm, warm --no-skip: 100% hits, stats bitwise equal)"
cache_dir=$(mktemp -d /tmp/fuse-verify-cache.XXXXXX)
./target/release/fusesim sweep --workloads all --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --cache-dir "$cache_dir" \
    --stats-json /tmp/fuse-verify-cold.json | grep -F "cache: 0 hit(s), 42 miss(es)"
./target/release/fusesim sweep --workloads all --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --cache-dir "$cache_dir" \
    --stats-json /tmp/fuse-verify-warm.json | grep -F "cache: 42 hit(s), 0 miss(es)"
diff /tmp/fuse-verify-cold.json /tmp/fuse-verify-warm.json
./target/release/fusesim sweep --workloads all --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --cache-dir "$cache_dir" --no-skip \
    --stats-json /tmp/fuse-verify-warm-tick.json | grep -F "cache: 42 hit(s), 0 miss(es)"
diff /tmp/fuse-verify-cold.json /tmp/fuse-verify-warm-tick.json
./target/release/fusesim cache verify --cache-dir "$cache_dir" >/dev/null
rm -rf "$cache_dir"

# Service smoke: serve over authenticated loopback (port 0 = kernel
# picks; the bound address is parsed from the startup line), reject a
# wrong token, do a cold + warm sweep, then send the whole 147-cell
# Fig. 13 grid as one request — far more cells than the 64-slot job
# queue holds, so it must be accepted whole under back-pressure — and
# shut down over the wire.
echo "==> fusesim serve smoke (auth round trip, cold+warm sweep, one-request fig13 grid, clean shutdown)"
tcp_dir=$(mktemp -d /tmp/fuse-verify-tcp.XXXXXX)
./target/release/fusesim serve --listen 127.0.0.1:0 --auth-token verify-secret \
    --cache-dir "$tcp_dir/cache" --scale 0.1 --workers 2 >"$tcp_dir/serve.log" &
tcp_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving on tcp:\([^ ]*\).*/\1/p' "$tcp_dir/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve never reported its TCP address"; exit 1; }
# The wrong token must be rejected (and must not burn the retry budget).
if ./target/release/fusesim submit --addr "$addr" --auth-token wrong --ping >/dev/null 2>&1; then
    echo "submit with a wrong token must fail"
    exit 1
fi
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret --ping \
    | grep -qx "PONG"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret \
    ATAX/Dy-FUSE GEMM/L1-SRAM | grep -qx "DONE hits=0 misses=2 errors=0"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret \
    ATAX/Dy-FUSE GEMM/L1-SRAM | grep -qx "DONE hits=2 misses=0 errors=0"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret \
    --workloads all --configs fig13 | grep -qx "DONE hits=2 misses=145 errors=0"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret --shutdown >/dev/null
wait "$tcp_pid"
rm -rf "$tcp_dir"

echo "verify: OK"
