#!/usr/bin/env bash
# Tier-1 CI gate: everything a PR must pass.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (every sharded test names its own worker counts; alloc budgets, counting allocator, read on the test's own thread: event storage, 0 per cancelled timer and per arm/cancel cycle (a timer's cancel flag is its closure's slot), an idle queue holds no closure and counts no cancel, 0 per armed vorx retry chain, queue memory <= 2 x live under a dead-timer backlog with 0 allocations per sweep, stale-handle ABA, 0 per warmed-up fabric unicast frame, 0 per warmed-up 63-target multicast over 16 clusters whether the fabric re-lists it in place or into its last re-listed list, 0 per warmed-up in-network allreduce of a 64-member group, <= 64 for a 1,000-message stop-and-wait run, <= 3 more for 1,000 more across two shards, 2 per gathered message (buffer + refcount block), <= 0.034 per try_open, <= 1.1 x 0.60 per node (unoptimised) for a 512-endpoint world opening one stream per node, <= 1.1 x 196 (unoptimised) for a 70-node stop-and-wait stream world, parked images in chunks of 32 per exact depth (4,096 processes at two depths: <= 2 x 64 + 8 allocations; ten spawn/finish waves grow nothing after the first; 0 image bytes once every process has finished), 0 frame buffers for 141 links first touched after warm-up, shard mailbox allocations <= 1 + ceil(log2 max depth), recompute, trace merge)"
cargo test --workspace -q

echo "==> every example runs (each of examples/*.rs exits 0, in the debug build cargo test made of it)"
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    echo "--> $name"
    cargo run -q --example "$name" >/dev/null
done

echo "==> shard build memory, optimised build (an 8-shard build of the 100k-endpoint world holds <= 52 MB live: one wiring shared by every shard, link state built on first touch; run idle, it materializes no node and every endpoint owns nothing; a dense 1024-endpoint run builds <= 1/4 of the links on any shard; untouched links read idle)"
cargo test --release -q --test wiring

echo "==> process switch and footprint, optimised build (one run stack and one baton: no OS threads, 250k parked, <= 473 B each in wait_until, 3 allocations per spawn (name, boxed body, its thin box), images packed 32 to a chunk per exact depth, no mapping per process, foreign-Ctx park, 1 MiB deep, image shrink/regrow, teardown, panic, cross-thread resume; live heap per process parked in each blocking VORX call within 10 % of its measured figure, 792-1,280 B; a group member's handle costs the same at 1,024 members as at 64)"
cargo test --release -q --test proc_switch --test footprint

echo "==> fabric grant order, optimised build (the release arbiter is the one the benchmark times: six seeded scenarios equal the pass-based scan's hashes, the multicast ones with every target list ascending, descending and shuffled, a cable cut under buffered multicasts delivers every target once, a re-list never rewrites a list its sender holds and delivers alike in place, into the last re-listed list or into a new one, one route per frame per cluster, <= 4 worklist visits per grant)"
cargo test --release -q --test fabric_order

echo "==> one event queue (no batch, buffer pool or second queue struct beside Scheduler in desim/src/sim.rs, and two mutexes: core, the queue and the world together, which a run segment holds from resume to resume, and panic_msg)"
# Above `mod tests`, where the executor lives.
sim_rs=$(sed '/^mod tests/,$d' crates/desim/src/sim.rs)
if grep -n 'enum Pending\|SchBufs\|POOL_CAP\|fn commit\|fn drain\|FreeCells\|struct Core' <<<"$sim_rs"; then
    echo "desim/src/sim.rs collects scheduled actions in a batch before queueing them again" >&2
    exit 1
fi
if [ "$(grep -c 'Mutex<' <<<"$sim_rs")" -ne 2 ]; then
    echo "desim/src/sim.rs must name Mutex< exactly twice (core, panic_msg):" >&2
    grep -n 'Mutex<' <<<"$sim_rs" >&2
    exit 1
fi

echo "==> one (time, seq) rule (no hand-ordered heap entry in the four loops that use desim::queue; clippy.toml refuses a BinaryHeap outside it)"
if grep -nE 'impl(<[^>]*>)? (Partial)?Ord for' crates/desim/src/sim.rs crates/desim/src/shard.rs \
    crates/hpcnet/src/driver.rs crates/snet/src/sim.rs; then
    echo "an event or envelope orders itself again; the queue's key does" >&2
    exit 1
fi

echo "==> one transmit state machine (no stop-and-wait sender state beside WinTx in crates/core/src)"
if grep -rn 'TxPending\|tx_pending\|tx_epoch\|arm_data_timer' crates/core/src/; then
    echo "crates/core/src keeps a second copy of the channel retransmit state again" >&2
    exit 1
fi

echo "==> two vendored stand-ins (vendor/ holds README.md, bytes and proptest; seeded draws come from desim::rng, locks are std::sync::Mutex through desim::lock)"
vendored=$(LC_ALL=C ls -A vendor | tr '\n' ' ')
if [ "$vendored" != "README.md bytes proptest " ]; then
    echo "vendor/ must hold exactly README.md, bytes and proptest, not: $vendored" >&2
    exit 1
fi

echo "==> pub fn ratchet (per library crate, src/bin/ excluded, no more public functions than: desim 149, hpcnet 96, snet 5, vorx 164, vorx-tools 24, vorx-apps 18, vorx-bench 28)"
# A ratchet, not proof: it stops the count from growing back, but a new
# `pub fn` that something outside its crate needs can take the place of one
# that lost its last outside user and stayed `pub` (rustc's dead_code cannot
# see either). Lower a figure when a change narrows or deletes one; the
# verify skill's "Narrowing pub to its users" loop finds them.
for entry in desim:desim:149 hpcnet:hpcnet:96 snet:snet:5 core:vorx:164 \
    tools:vorx-tools:24 apps:vorx-apps:18 bench:vorx-bench:28; do
    IFS=: read -r dir crate max <<<"$entry"
    count=$(find "crates/$dir/src" -path "crates/$dir/src/bin" -prune -o -name '*.rs' -print0 |
        xargs -0 grep -hE '^\s*pub (const |async |unsafe )?fn ' | wc -l)
    if [ "$count" -gt "$max" ]; then
        echo "$crate has $count pub fns, more than its ratchet of $max: make the new ones pub(crate) unless another crate calls them" >&2
        exit 1
    fi
done

echo "==> one router (one BFS queue in hpcnet/src/topology.rs builds routes, repairs and the lookahead table; no second live route store under crates/)"
# Above `mod tests`: the line of the `fn` enclosing each `pop_front()`.
bfs_fns=$(sed '/^mod tests/,$d' crates/hpcnet/src/topology.rs |
    awk '/^ *(pub )?(pub\(crate\) )?fn /{f=NR} /pop_front\(\)/{print f}' | sort -u | wc -l)
if [ "$bfs_fns" -ne 1 ]; then
    echo "exactly one function in crates/hpcnet/src/topology.rs may run a BFS queue (it builds routes, repairs and the sharded lookahead table):" >&2
    grep -n 'pop_front()' crates/hpcnet/src/topology.rs >&2
    exit 1
fi
if grep -rn 'recompute_table\|finish_table\|Repr::Table\|base_next_port' crates/; then
    echo "crates/ keeps a dense live routing table beside the overlay again" >&2
    exit 1
fi

echo "==> no serialisation framework (a trace event writes its own JSON: no generic serializer, no manifest entry; and every manifest names only crates its sources name)"
# The names are split so this script does not match itself.
if grep -rniE 'ser''de|impl Seri''alize|Mini''Json' crates src tests examples vendor Cargo.toml Cargo.lock; then
    echo "a serialisation framework is back; implement desim::trace::JsonEvent for the event type" >&2
    exit 1
fi
for pkg in . crates/*; do
    deps=$(awk '/^\[/{dep = /^\[(dev-)?dependencies\]/} dep && /^[a-z0-9_-]+ *=/{sub(/ *=.*/, ""); print}' "$pkg/Cargo.toml")
    for dep in $deps; do
        name=${dep//-/_}
        if ! grep -rqE "\b$name::|\buse $name\b" "$pkg"/{src,tests,benches,examples} 2>/dev/null; then
            echo "$pkg/Cargo.toml lists $dep, which nothing under $pkg/{src,tests,benches,examples} names" >&2
            exit 1
        fi
    done
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings (clippy.toml: no BinaryHeap outside desim::queue, no OS thread for a process and one run stack per simulation, no environment read, no vorx timeout armed outside vorx::retry, no kernel wait marked outside vorx::api::block_until)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone

echo "==> cargo doc -D warnings (no broken or private intra-doc link, no stray HTML tag in a doc comment)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> one campaign harness (one --smoke entry point under crates/bench/src/bin; no report emitter, \"cells\" literal or BENCH_ path in code outside crates/bench/src/campaign.rs)"
if [ "$(grep -l -- '--smoke' crates/bench/src/bin/*.rs | wc -l)" -ne 1 ]; then
    echo "exactly one file under crates/bench/src/bin/ may handle --smoke:" >&2
    grep -l -- '--smoke' crates/bench/src/bin/*.rs >&2
    exit 1
fi
# Comment lines may name the files; code may not.
if grep -rn 'fn to_json\|"cells"\|BENCH_' crates/bench/src --include='*.rs' |
    grep -v '^crates/bench/src/campaign.rs:' | grep -v '^[^:]*:[0-9]*: *//'; then
    echo "a second report emitter or reader outside crates/bench/src/campaign.rs" >&2
    exit 1
fi

echo "==> campaign smoke (all ten campaigns — the paper's own numbers first, then every engine kernel run once —, every cell not marked heavy, under the watchdog: named oracles, workers {1,4} trace equality, cross-cell gates, each cell's simulated record compared with the committed BENCH_<name>.json, and every committed cell still a row of its table)"
cargo run --release -p vorx-bench --bin campaign -- --smoke

echo "==> benchmark self-check (read-only: 1/20-size rep of all six workloads against the public surface benchmark/ calls)"
# Any offline build of benchmark/ rewrites its lock file (the committed one
# still lists retired vendor/ stand-ins, and only the benchmark-maintenance
# PR may fix it): put it back, so that CI leaves a clean tree.
cp benchmark/Cargo.lock target/benchmark-Cargo.lock.saved
trap 'mv target/benchmark-Cargo.lock.saved benchmark/Cargo.lock' EXIT
CARGO_TARGET_DIR=target/benchmark cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --check

echo "CI OK"
