#!/usr/bin/env bash
# Crash-recovery smoke for `tdmd serve --journal`, run from the
# repository root after `dune build`:
#
#   bash .github/kill9-smoke.sh one-shard|sharded|rebalance|legacy|legacy-sharded
#
# Serve with a journal, mutate with request ids, kill -9, restart on the
# same journal, retry an op the dead server applied (it must dedup), and
# diff the observation before the crash with the one after, bit for bit.
# one-shard observes a live GTP solve after churn on one shard (kept in
# shard-0/ like any shard); sharded does the same at --shards 4 with a
# cross-shard arrival and restarts without --shards (the count is
# detected from the shard-<i> directories); rebalance observes the churn
# summary of a migration-budgeted engine after two rebalance passes.
# legacy serves a copy of test/wal_fixtures/flat, a directory written
# before sharding, retries its f-a4 arrival (it must dedup) and checks
# that the directory was moved into shard-0/.  legacy-sharded serves a
# copy of test/wal_fixtures/sharded, whose coordinator journal holds a
# cross-shard arrival (s-x5) that no shard applied: its retry applies
# it, a second retry dedups, and the root keeps only shard-0..3/.
set -euo pipefail

TDMD=_build/default/bin/tdmd_cli.exe
if [ ! -x "$TDMD" ]; then
  echo "kill9-smoke.sh: $TDMD not found; run dune build first" >&2
  exit 2
fi
WORK=$(mktemp -d)
SERVE_PID=
# A failed assertion must not leave a server behind.
trap '[ -z "$SERVE_PID" ] || kill -9 "$SERVE_PID" 2>/dev/null; rm -rf "$WORK"' EXIT
SOCK=$WORK/tdmd.sock
WAL=$WORK/wal

client() { "$TDMD" client --connect "unix:$SOCK" "$@"; }
answer() { grep -o '"placement":\[[^]]*\],"bandwidth":[^,]*'; }
churn() { grep -o '"churn":{[^}]*}'; }

# A path graph on [n] vertices carrying one flow of rate 3 on [path].
instance() {
  local n=$1 path=$2 edges="" v
  for ((v = 0; v < n - 1; v++)); do
    edges+="${edges:+,}[$v,$((v + 1))]"
  done
  printf '{"lambda": 0.5, "vertices": %d, "edges": [%s],\n "flows": [{"id": 100, "rate": 3, "path": [%s]}]}\n' \
    "$n" "$edges" "$path" > "$WORK/inst.json"
}

# The root holds the one-shard layout: shard-0/ with its snapshot, and
# no snapshot of its own.
one_shard_layout() {
  [ -f "$WAL/shard-0/snapshot.json" ]
  [ ! -e "$WAL/snapshot.json" ]
}

# Serve a copy of a committed fixture directory until shutdown.
serve_fixture() {
  mkdir -p "$WAL"
  cp -r "test/wal_fixtures/$1"/* "$WAL/"
  "$TDMD" serve --listen "unix:$SOCK" --journal "$WAL" &
  SERVE_PID=$!
}
stop_fixture() {
  client --op shutdown
  wait "$SERVE_PID"
  SERVE_PID=
}

case "${1:-}" in
  legacy)
    serve_fixture flat
    client --op arrive --flow-id 4 --rate 1 --path 9,10,11 --req-id f-a4 \
      | grep -q '"dedup":true'
    stop_fixture
    one_shard_layout
    [ "$(ls "$WAL")" = shard-0 ]
    echo "kill9-smoke legacy: ok"
    exit 0
    ;;
  legacy-sharded)
    serve_fixture sharded
    x5() { client --op arrive --flow-id 5 --rate 1 --path 2,3,4 --req-id s-x5; }
    x5 > "$WORK/x5.json"
    grep -q '"cross":true' "$WORK/x5.json"
    if grep -q '"dedup"' "$WORK/x5.json"; then
      echo "legacy-sharded: the first s-x5 retry was not applied" >&2
      exit 1
    fi
    x5 | grep -q '"dedup":true'
    stop_fixture
    [ "$(ls "$WAL")" = "$(printf 'shard-0\nshard-1\nshard-2\nshard-3')" ]
    echo "kill9-smoke legacy-sharded: ok"
    exit 0
    ;;
  one-shard)
    instance 6 0,1,2,3
    first=(--churn-k 2)
    restart=(--churn-k 2)
    mutate() {
      for i in 1 2 3 4 5; do
        client --op arrive --flow-id "$i" --rate 2 --path 0,1,2,3 --req-id "ci-$i"
      done
      client --op depart --flow-id 3 --req-id ci-d3
    }
    observe() { client --op solve --algo gtp -k 2 --on live | answer; }
    retry() { client --op arrive --flow-id 5 --rate 2 --path 0,1,2,3 --req-id ci-5; }
    check_restarted() {
      client --op stats > "$WORK/stats.json"
      grep -q '"dedup_hits":1' "$WORK/stats.json"
      grep -q '"wal_replayed":6' "$WORK/stats.json"
      one_shard_layout
    }
    # Offline recover doubles as compaction and must agree too.
    check_recovered() { "$TDMD" recover --journal "$WAL" | grep -q '"flows":4'; }
    ;;
  sharded)
    instance 8 0,1,2
    first=(--churn-k 2 --shards 4)
    restart=(--churn-k 2)
    mutate() {
      client --op arrive --flow-id 1 --rate 2 --path 0,1 --req-id sh-1
      client --op arrive --flow-id 2 --rate 2 --path 2,3 --req-id sh-2
      client --op arrive --flow-id 3 --rate 1 --path 4,5 --req-id sh-3
      client --op arrive --flow-id 4 --rate 1 --path 6,7 --req-id sh-4
      # A path spanning two regions is applied on its home shard.
      client --op arrive --flow-id 5 --rate 2 --path 1,2,3 --req-id sh-5 \
        | grep -q '"cross":true'
      client --op depart --flow-id 3 --req-id sh-d3
    }
    observe() { client --op solve --algo gtp -k 2 --on live | answer; }
    retry() { client --op arrive --flow-id 5 --rate 2 --path 1,2,3 --req-id sh-5; }
    # The restarted router only knows live flows; a retried depart of a
    # departed one must still reach its home shard's dedup table.
    check_restarted() {
      client --op stats | grep -q '"shards":'
      client --op depart --flow-id 3 --req-id sh-d3 | grep -q '"dedup":true'
    }
    # Offline recover detects the shard layout and agrees.
    check_recovered() {
      "$TDMD" recover --journal "$WAL" > "$WORK/recover.json"
      grep -q '"shard_count":4' "$WORK/recover.json"
      grep -q '"flows":4' "$WORK/recover.json"
    }
    ;;
  rebalance)
    instance 8 0,1,2,3
    first=(--churn-k 3 --migration-budget 2)
    restart=(--churn-k 3 --migration-budget 2)
    mutate() {
      client --op arrive --flow-id 1 --rate 2 --path 4,5,6,7 --req-id rb-a1
      client --op arrive --flow-id 2 --rate 1 --path 6,7 --req-id rb-a2
      client --op rebalance --req-id rb-1 | grep -q '"budget":2'
      client --op rebalance --move-budget 6 --req-id rb-2 | grep -q '"budget":6'
    }
    observe() { client --op stats | churn; }
    retry() { client --op rebalance --move-budget 6 --req-id rb-2; }
    check_restarted() { :; }
    # 2 automatic post-arrival passes + 2 explicit ones; the
    # deduplicated retry must not have run a 5th.
    check_recovered() { grep -q '"rebalances":4' "$WORK/after.txt"; }
    ;;
  *)
    echo "usage: $0 one-shard|sharded|rebalance|legacy|legacy-sharded" >&2
    exit 2
    ;;
esac

serve() {
  "$TDMD" serve --instance "$WORK/inst.json" --listen "unix:$SOCK" \
    --journal "$WAL" "$@" &
  SERVE_PID=$!
}

serve --fsync always "${first[@]}"
mutate
observe > "$WORK/before.txt"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
rm -f "$SOCK"
serve "${restart[@]}"
# Retry an op the dead server already applied: must dedup.
retry | grep -q '"dedup":true'
observe > "$WORK/after.txt"
check_restarted
client --op shutdown
wait "$SERVE_PID"
SERVE_PID=
diff "$WORK/before.txt" "$WORK/after.txt"
check_recovered
echo "kill9-smoke $1: ok"
