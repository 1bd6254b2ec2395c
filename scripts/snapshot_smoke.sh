#!/usr/bin/env bash
# End-to-end snapshot smoke test: build passjoind, start it from a corpus
# with -save, then from the saved snapshot at -shards 1 and -shards 2, then
# from a snapshot an older build wrote from the same corpus (with a frozen
# index section, testdata/parent-v3-author.pjix), and require the same 100
# responses, byte for byte, from every start. Then serve a copy of the -wal
# directory an older build split over two shards (testdata/parent-wal) —
# converted to one shard on open — kill -9 it, restart it at another
# -shards, and require every GET /v1/docs/{id} to match what the older
# build answered (expected.ndjson) both times.
# Used by CI; runnable locally: ./scripts/snapshot_smoke.sh
set -euo pipefail

API=127.0.0.1:19878

workdir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { printf '== %s\n' "$*"; }

strings=400 # documents the daemon serves once it is up

serve() { # passjoind arguments; returns once the daemon answers
  "$workdir/passjoind" -addr "$API" "$@" >> "$workdir/passjoind.log" 2>&1 &
  pid=$!
  for _ in $(seq 100); do
    if curl -fsS "http://$API/healthz" 2>/dev/null | grep -q "\"strings\":$strings"; then
      return 0
    fi
    sleep 0.1
  done
  echo "timeout waiting for passjoind $*" >&2
  cat "$workdir/passjoind.log" >&2
  return 1
}

stop() {
  kill "$pid"
  wait "$pid" 2>/dev/null || true
  pid=
}

ask() { # output file: 50 searches and 50 top-k lookups, one response a line
  while IFS= read -r q; do
    curl -fsS -G --data-urlencode "q=$q" "http://$API/v1/search"
    curl -fsS -G --data-urlencode "q=$q" "http://$API/v1/topk?k=3"
  done < "$workdir/queries.txt" > "$1"
  [ "$(wc -l < "$1")" = 100 ] || { echo "$1 holds $(wc -l < "$1") responses, want 100" >&2; return 1; }
}

docs() { # output file: GET /v1/docs/{id} for ids 0..78, the live ones only
  for id in $(seq 0 78); do
    curl -fsS "http://$API/v1/docs/$id" 2>/dev/null || true
  done > "$1"
  diff testdata/parent-wal/expected.ndjson "$1" > "$workdir/diff.out" || {
    echo "$1 differs from what the older build answered:" >&2
    head -20 "$workdir/diff.out" >&2
    exit 1
  }
}

same() { # label file
  diff "$workdir/corpus.out" "$2" > "$workdir/diff.out" || {
    echo "$1 answers differently from the corpus start:" >&2
    head -20 "$workdir/diff.out" >&2
    exit 1
  }
}

say "building passjoind and passgen"
go build -o "$workdir/passjoind" ./cmd/passjoind
go build -o "$workdir/passgen" ./cmd/passgen

say "generating the corpus of testdata/parent-v3-author.pjix (400 author names, seed 3)"
"$workdir/passgen" -corpus author -seed 3 -n 400 -o "$workdir/corpus.txt"
# Queries: 50 corpus strings, each without its last character.
head -50 "$workdir/corpus.txt" | sed 's/.$//' > "$workdir/queries.txt"

say "corpus start with -save"
serve -tau 2 -save "$workdir/idx.pjix" "$workdir/corpus.txt"
ask "$workdir/corpus.out"
stop
grep -q '"dist":1' "$workdir/corpus.out" || { echo "no query found its corpus string" >&2; exit 1; }

for shards in 1 2; do
  say "snapshot start at -shards $shards"
  serve -snapshot "$workdir/idx.pjix" -shards "$shards"
  ask "$workdir/snapshot$shards.out"
  stop
  same "-snapshot at -shards $shards" "$workdir/snapshot$shards.out"
done

say "start from the snapshot an older build wrote, frozen section and all"
serve -snapshot testdata/parent-v3-author.pjix
ask "$workdir/parent.out"
stop
same "testdata/parent-v3-author.pjix" "$workdir/parent.out"
[ "$(wc -c < "$workdir/idx.pjix")" -lt "$(wc -c < testdata/parent-v3-author.pjix)" ] || {
  echo "the saved snapshot is no smaller than the older build's: is an index section still written?" >&2; exit 1; }

say "-wal on a copy of testdata/parent-wal (2 shards, an older build's): converted on open"
cp -r testdata/parent-wal "$workdir/wal"
strings=74
serve -tau 2 -wal "$workdir/wal" -shards 1
docs "$workdir/wal1.out"
grep -q '"shards":1' "$workdir/wal/meta.json" || {
  echo "meta.json after conversion: $(cat "$workdir/wal/meta.json")" >&2; exit 1; }
! ls "$workdir"/wal/shard-1.* 2>/dev/null || { echo "shard-1 files left after conversion" >&2; exit 1; }

say "kill -9, restart at -shards 3"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=
serve -tau 2 -wal "$workdir/wal" -shards 3
docs "$workdir/wal3.out"
stop
grep -q '"shards":1' "$workdir/wal/meta.json" || { echo "meta.json: $(cat "$workdir/wal/meta.json")" >&2; exit 1; }
! ls "$workdir"/wal/shard-1.* 2>/dev/null || { echo "shard-1 files came back" >&2; exit 1; }

say "OK"
