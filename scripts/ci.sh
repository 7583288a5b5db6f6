#!/usr/bin/env bash
# Full verification pipeline, runnable locally or in CI:
#
#   1. tier-1: default preset, the whole test suite (unit, property,
#      recovery, stress, dup-labeled invalidation tests);
#   2. dup:    `ctest -L dup` on the same build — the sublinear-invalidation
#      suite on its own, for quick iteration on the DUP engine;
#   3. tsan:   ThreadSanitizer build, stress-, server-, vec-, semantic-
#              and cluster-labeled tests (exercises the default kClock
#              shared-lock hit path, the qcached I/O-thread/worker handoff,
#              the vectorized scan worker pool and hash-join/arithmetic
#              differential rounds, the semantic tier's concurrent
#              no-stale-hit suite, and the CDC applier and cluster);
#   4. asan:   AddressSanitizer build, recovery-, server-, vec-, semantic-
#              and cluster-labeled tests;
#   5. bench-smoke: the self-checking extension benches (ext_hit_contention,
#              ext_invalidation_scale, ext_server_latency, ext_scan_speed,
#              ext_semantic_hit, ext_cluster_invalidation)
#              in quick mode — their [VIOLATION] checks gate the stage and
#              each drops a BENCH_<name>.json artifact into build/bench/
#              (committed snapshots live in bench/artifacts/).
#   6. paper:  the six paper-figure benches (fig09_query_types,
#              fig10_update_rates, fig11_update_sizes, fig12_hot_spots,
#              fig13_invalidations, sec51_tpc_workloads) at their default
#              size (~35 s together); their shape checks (exit codes) gate
#              the stage, so an invalidation change that moves a figure's
#              hit rates out of the paper's shape fails here.
#   7. serve-smoke: build qcached + qcsh, boot a real server on an
#              ephemeral port with a disk cache, and drive a scripted
#              `qcsh --connect` session (prepare, query xN, stats, drain);
#              gates on the hit transition, clean drain, and exit code 0.
#   8. cluster-smoke: boot one storage node plus three qcached cache nodes
#              wired as a ring (--upstream/--peer, docs/CLUSTER.md), route
#              a SELECT through the ring to a cache hit, run a DML through
#              a different cache node, and gate on the pushed CDC
#              invalidation landing remotely: the re-query must show the
#              fresh count, never the stale one, and ring_forwards must be
#              visible in \stats.
#
# Stages can be selected by name: `scripts/ci.sh tier1 dup` runs only the
# first two. Default is all eight. JOBS controls build parallelism.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(tier1 dup tsan asan bench-smoke paper serve-smoke cluster-smoke)

want() {
  local stage
  for stage in "${STAGES[@]}"; do
    [ "$stage" = "$1" ] && return 0
  done
  return 1
}

banner() { printf '\n=== %s ===\n' "$1"; }

if want tier1 || want dup || want bench-smoke || want paper || want serve-smoke || want cluster-smoke; then
  banner "configure+build (default preset)"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS"
fi

if want tier1; then
  banner "tier-1 test suite"
  ctest --preset default -j "$JOBS"
fi

if want dup; then
  banner "dup-labeled invalidation suite (ctest -L dup)"
  ctest --test-dir build -L dup --output-on-failure -j "$JOBS"
fi

if want tsan; then
  banner "tsan stress + server suites"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS"
  ctest --preset tsan-stress -j "$JOBS"
  ctest --preset tsan-server -j "$JOBS"
  ctest --preset tsan-vec -j "$JOBS"
  ctest --preset tsan-semantic -j "$JOBS"
  ctest --preset tsan-cluster -j "$JOBS"
fi

if want asan; then
  banner "asan recovery + server suites"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$JOBS"
  ctest --preset asan-recovery -j "$JOBS"
  ctest --preset asan-server -j "$JOBS"
  ctest --preset asan-vec -j "$JOBS"
  ctest --preset asan-semantic -j "$JOBS"
  ctest --preset asan-cluster -j "$JOBS"
fi

if want bench-smoke; then
  banner "bench smoke (self-checking extension benches, quick mode)"
  # Quick-mode envs shrink the measure windows/sweeps so the stage stays
  # under a minute; the benches' own [VIOLATION] checks (exit code) gate it,
  # and hard perf-ratio checks self-skip on low-core machines.
  BENCH_JSON_DIR=build/bench HIT_MS=100 HIT_READERS=8 ./build/bench/ext_hit_contention
  BENCH_JSON_DIR=build/bench EXT_INV_MAX_QUERIES=10000 ./build/bench/ext_invalidation_scale
  BENCH_JSON_DIR=build/bench SRV_CONNS=8 SRV_REQS_PER_CONN=500 ./build/bench/ext_server_latency
  BENCH_JSON_DIR=build/bench EXT_SCAN_ROWS=150000 \
    EXT_SCAN_MIN_JOIN_SPEEDUP=3 EXT_SCAN_MIN_GROUP_SPEEDUP=3 ./build/bench/ext_scan_speed
  BENCH_JSON_DIR=build/bench SEM_ROWS=100000 ./build/bench/ext_semantic_hit
  BENCH_JSON_DIR=build/bench CLUSTER_DMLS=50 CLUSTER_FILLS=300 ./build/bench/ext_cluster_invalidation
  ls -l build/bench/BENCH_ext_hit_contention.json build/bench/BENCH_ext_invalidation_scale.json \
        build/bench/BENCH_ext_server_latency.json build/bench/BENCH_ext_scan_speed.json \
        build/bench/BENCH_ext_semantic_hit.json build/bench/BENCH_ext_cluster_invalidation.json
fi

if want paper; then
  banner "paper figures (fig09-fig13, sec51; shape checks gate)"
  for bench in fig09_query_types fig10_update_rates fig11_update_sizes fig12_hot_spots \
               fig13_invalidations sec51_tpc_workloads; do
    ./build/bench/"$bench"
  done
fi

if want serve-smoke; then
  banner "serve smoke (qcached + scripted qcsh --connect session)"
  ctest --preset server -j "$JOBS"
  SMOKE_DIR=$(mktemp -d)
  SERVER_PID=""
  trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
  mkdir -p "$SMOKE_DIR/cache"
  cat > "$SMOKE_DIR/init.qc" <<'INIT'
\create ITEMS ID INT, KIND STRING, PRICE INT
INSERT INTO ITEMS VALUES (1, 'a', 10)
INSERT INTO ITEMS VALUES (2, 'b', 20)
INSERT INTO ITEMS VALUES (3, 'a', 30)
INSERT INTO ITEMS VALUES (4, 'b', 40)
INIT
  ./build/tools/qcached --port 0 --port-file "$SMOKE_DIR/port" \
      --cache-mode disk --cache-dir "$SMOKE_DIR/cache" --recover \
      --txlog "$SMOKE_DIR/txlog" --init "$SMOKE_DIR/init.qc" &
  SERVER_PID=$!
  for _ in $(seq 1 200); do [ -s "$SMOKE_DIR/port" ] && break; sleep 0.05; done
  [ -s "$SMOKE_DIR/port" ] || { echo "serve-smoke: server never wrote its port file"; exit 1; }
  PORT=$(cat "$SMOKE_DIR/port")
  cat > "$SMOKE_DIR/session.qc" <<'SESSION'
\ping
\prepare SELECT COUNT(*) FROM ITEMS WHERE KIND = $1
\execute 1 'a'
\execute 1 'a'
\execute 1 'b'
SELECT ID, PRICE FROM ITEMS WHERE PRICE > 15
SELECT ID, PRICE FROM ITEMS WHERE PRICE > 15
UPDATE ITEMS SET PRICE = 99 WHERE ID = 1
\execute 1 'a'
\close 1
\stats
\drain
SESSION
  ./build/examples/qcsh --connect "127.0.0.1:$PORT" < "$SMOKE_DIR/session.qc" \
      | tee "$SMOKE_DIR/session.out"
  wait "$SERVER_PID"   # drain must exit 0 (set -e gates on it)
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  grep -q "cache hit" "$SMOKE_DIR/session.out" \
      || { echo "serve-smoke: expected a cache hit in the session"; exit 1; }
  grep -q "server drained; connection closed" "$SMOKE_DIR/session.out" \
      || { echo "serve-smoke: expected a clean drain"; exit 1; }
fi

if want cluster-smoke; then
  banner "cluster smoke (1 storage node + 3 ring-routed cache nodes)"
  ctest --preset cluster -j "$JOBS"
  CLUSTER_DIR=$(mktemp -d)
  CLUSTER_PIDS=()
  # (also keeps cleaning the serve-smoke dir, whose trap this replaces)
  trap 'kill "${CLUSTER_PIDS[@]}" 2>/dev/null || true; rm -rf "$CLUSTER_DIR" "${SMOKE_DIR:-}"' EXIT
  cat > "$CLUSTER_DIR/init.qc" <<'INIT'
\create ITEMS ID INT, KIND STRING, PRICE INT
INSERT INTO ITEMS VALUES (1, 'a', 7)
INSERT INTO ITEMS VALUES (2, 'a', 7)
INSERT INTO ITEMS VALUES (3, 'a', 7)
INSERT INTO ITEMS VALUES (4, 'a', 7)
INSERT INTO ITEMS VALUES (5, 'a', 7)
INSERT INTO ITEMS VALUES (6, 'a', 7)
INSERT INTO ITEMS VALUES (7, 'a', 7)
INSERT INTO ITEMS VALUES (8, 'a', 7)
INSERT INTO ITEMS VALUES (9, 'a', 7)
INSERT INTO ITEMS VALUES (10, 'a', 7)
INSERT INTO ITEMS VALUES (11, 'a', 7)
INSERT INTO ITEMS VALUES (12, 'b', 7)
INIT
  # Cache nodes only need the catalog; their fills come over QUERY_SEQ.
  head -1 "$CLUSTER_DIR/init.qc" > "$CLUSTER_DIR/schema.qc"

  ./build/tools/qcached --port 0 --port-file "$CLUSTER_DIR/storage.port" \
      --init "$CLUSTER_DIR/init.qc" &
  CLUSTER_PIDS+=($!)
  for _ in $(seq 1 200); do [ -s "$CLUSTER_DIR/storage.port" ] && break; sleep 0.05; done
  [ -s "$CLUSTER_DIR/storage.port" ] || { echo "cluster-smoke: storage node never came up"; exit 1; }
  STORAGE_PORT=$(cat "$CLUSTER_DIR/storage.port")

  # Peers must know each other's ports before any of them starts, so pick a
  # free contiguous block up front (ephemeral --port 0 cannot work here).
  pick_ports() {
    local attempt base p
    for attempt in $(seq 1 20); do
      base=$((20000 + RANDOM % 20000))
      for p in 0 1 2; do
        (exec 3<>"/dev/tcp/127.0.0.1/$((base + p))") 2>/dev/null && { exec 3>&-; continue 2; }
      done
      echo "$base"; return 0
    done
    return 1
  }
  BASE=$(pick_ports) || { echo "cluster-smoke: no free port block"; exit 1; }
  for i in 0 1 2; do
    PEERS=()
    for p in 0 1 2; do
      [ "$p" = "$i" ] || PEERS+=(--peer "cache$p=127.0.0.1:$((BASE + p))")
    done
    ./build/tools/qcached --port $((BASE + i)) \
        --port-file "$CLUSTER_DIR/cache$i.port" --init "$CLUSTER_DIR/schema.qc" \
        --upstream "127.0.0.1:$STORAGE_PORT" --node-name "cache$i" "${PEERS[@]}" &
    CLUSTER_PIDS+=($!)
  done
  for i in 0 1 2; do
    for _ in $(seq 1 200); do [ -s "$CLUSTER_DIR/cache$i.port" ] && break; sleep 0.05; done
    [ -s "$CLUSTER_DIR/cache$i.port" ] || { echo "cluster-smoke: cache$i never came up"; exit 1; }
  done

  QCSH=./build/examples/qcsh
  # Route the same SELECT through cache0 twice: the ring forwards it to its
  # owner, and the second pass must be a cluster-wide cache hit.
  printf "SELECT COUNT(*) FROM ITEMS WHERE KIND = 'a'\nSELECT COUNT(*) FROM ITEMS WHERE KIND = 'a'\n\\stats\n" \
      | "$QCSH" --connect "127.0.0.1:$((BASE + 0))" | tee "$CLUSTER_DIR/warm.out"
  grep -q "cache hit" "$CLUSTER_DIR/warm.out" \
      || { echo "cluster-smoke: expected a ring-routed cache hit"; exit 1; }
  grep -q "cluster.ring_forwards" "$CLUSTER_DIR/warm.out" \
      || { echo "cluster-smoke: expected cluster counters in \\stats"; exit 1; }

  # DML through a DIFFERENT cache node: forwarded to the storage node,
  # whose CDC stream must invalidate the owning cache remotely.
  printf "UPDATE ITEMS SET KIND = 'b' WHERE ID = 1\n" \
      | "$QCSH" --connect "127.0.0.1:$((BASE + 1))" | grep -q "1 rows affected" \
      || { echo "cluster-smoke: DML through a cache node failed"; exit 1; }

  # The fresh count (10) must appear within one CDC round-trip; a stale
  # cache hit of the old count (11) after it settles is a failure.
  FRESH=0
  for _ in $(seq 1 100); do
    printf "SELECT COUNT(*) FROM ITEMS WHERE KIND = 'a'\n" \
        | "$QCSH" --connect "127.0.0.1:$((BASE + 2))" > "$CLUSTER_DIR/requery.out"
    if grep -q "^10$" <(grep -oE "[0-9]+" "$CLUSTER_DIR/requery.out"); then FRESH=1; break; fi
    sleep 0.05
  done
  [ "$FRESH" = 1 ] || { echo "cluster-smoke: remote invalidation never landed"; exit 1; }
  printf "SELECT COUNT(*) FROM ITEMS WHERE KIND = 'a'\n" \
      | "$QCSH" --connect "127.0.0.1:$((BASE + 2))" | tee "$CLUSTER_DIR/settled.out"
  grep -oE "[0-9]+" "$CLUSTER_DIR/settled.out" | grep -q "^11$" \
      && { echo "cluster-smoke: stale count served after invalidation"; exit 1; }

  kill "${CLUSTER_PIDS[@]}" 2>/dev/null || true
  wait "${CLUSTER_PIDS[@]}" 2>/dev/null || true
  CLUSTER_PIDS=()
  trap 'rm -rf "$CLUSTER_DIR" "${SMOKE_DIR:-}"' EXIT
fi

banner "all requested stages passed"
