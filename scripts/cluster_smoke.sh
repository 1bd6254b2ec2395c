#!/usr/bin/env bash
# End-to-end cluster smoke test: build passjoind, start three dynamic
# member daemons and a coordinator as real processes, route 900 writes,
# require byte-identical reads vs a single-node daemon over the union
# corpus (refusals and 405s included), then kill a member and require a
# 206 partial response.
# Used by CI; runnable locally: ./scripts/cluster_smoke.sh
set -euo pipefail

COORD=127.0.0.1:18878
M0=127.0.0.1:18880
M1=127.0.0.1:18881
M2=127.0.0.1:18882
SINGLE=127.0.0.1:18890

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { printf '== %s\n' "$*"; }

wait_for() { # url substring tries
  local url=$1 want=$2 tries=${3:-100}
  for _ in $(seq "$tries"); do
    if curl -fsS "$url" 2>/dev/null | grep -q "$want"; then
      return 0
    fi
    sleep 0.1
  done
  echo "timeout waiting for $want at $url" >&2
  curl -fsS "$url" >&2 || true
  return 1
}

say "building passjoind"
go build -o "$workdir/passjoind" ./cmd/passjoind

say "starting three volatile member daemons"
for i in 0 1 2; do
  port_var="M$i"
  "$workdir/passjoind" -tau 1 -shards 2 -dynamic -addr "${!port_var}" \
    > "$workdir/member$i.log" 2>&1 &
  pids+=($!)
done
for i in 0 1 2; do
  port_var="M$i"
  wait_for "http://${!port_var}/healthz" '"status":"ok"'
done

say "starting coordinator (api $COORD)"
m2_pid_index=$((${#pids[@]} - 1))
"$workdir/passjoind" -coordinator \
  -member "m0=http://$M0" -member "m1=http://$M1" -member "m2=http://$M2" \
  -addr "$COORD" > "$workdir/coordinator.log" 2>&1 &
pids+=($!)
wait_for "http://$COORD/healthz" '"healthy":3'

say "routing 900 writes through the coordinator"
seq -f 'document-%04.0f' 900 > "$workdir/corpus.txt"
i=0
while IFS= read -r doc; do
  id=$(curl -fsS -d "{\"doc\":\"$doc\"}" "http://$COORD/v1/docs" |
    sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  [ "$id" = "$i" ] || { echo "write $i allocated id $id" >&2; exit 1; }
  i=$((i + 1))
done < "$workdir/corpus.txt"

say "documents spread across all members"
for port in $M0 $M1 $M2; do
  n=$(curl -fsS "http://$port/v1/stats" | sed -n 's/.*"strings":\([0-9]*\).*/\1/p')
  [ "$n" -gt 0 ] || { echo "member $port holds no documents" >&2; exit 1; }
  echo "   member $port: $n docs"
done

say "starting single-node reference over the union corpus"
"$workdir/passjoind" -tau 1 -shards 2 -dynamic -addr "$SINGLE" \
  "$workdir/corpus.txt" > "$workdir/single.log" 2>&1 &
pids+=($!)
wait_for "http://$SINGLE/healthz" '"status":"ok"'

say "cluster reads are byte-identical to the single node"
for q in document-0042 document-0899 document-9999 'document-000'; do
  for path in "/v1/search?q=$q" "/v1/search?q=$q&k=3" "/v1/topk?q=$q&k=5"; do
    c=$(curl -fsS "http://$COORD$path")
    s=$(curl -fsS "http://$SINGLE$path")
    if [ "$c" != "$s" ]; then
      echo "divergence on $path:" >&2
      echo "  cluster: $c" >&2
      echo "  single:  $s" >&2
      exit 1
    fi
  done
done
body='{"queries":["document-0001","document-0500","nope"],"k":2}'
c=$(curl -fsS -d "$body" "http://$COORD/v1/batch")
s=$(curl -fsS -d "$body" "http://$SINGLE/v1/batch")
[ "$c" = "$s" ] || { echo "batch divergence:" >&2; echo "  cluster: $c" >&2; echo "  single:  $s" >&2; exit 1; }

say "refusals and defaults match the single node too (status, Allow, body)"
answer() { # method host path -> status, Allow header and body on stdout
  local hdr="$workdir/headers"
  local body
  body=$(curl -s -X "$1" -D "$hdr" "http://$2$3")
  printf '%s\n%s\n%s\n' "$(head -n 1 "$hdr" | cut -d' ' -f2)" \
    "$(grep -i '^allow:' "$hdr" | tr -d '\r')" "$body"
}
for req in 'GET /v1/search?q=' 'GET /v1/search?q=x&k=-1' 'GET /v1/search?q=x&tau=abc' \
  'GET /v1/search?q=x&tau=99' 'GET /v1/topk?q=x&k=0' 'DELETE /v1/search' \
  'GET /v1/topk?q=document-000'; do
  read -r method path <<< "$req"
  c=$(answer "$method" "$COORD" "$path")
  s=$(answer "$method" "$SINGLE" "$path")
  [[ "$c" =~ ^[0-9]{3} ]] || { echo "no answer to $req: $c" >&2; exit 1; }
  [ "$c" = "$s" ] || { echo "divergence on $req:" >&2; echo "  cluster: $c" >&2; echo "  single:  $s" >&2; exit 1; }
done

say "killing member m2 -> degraded partial responses"
kill "${pids[$m2_pid_index]}"
wait "${pids[$m2_pid_index]}" 2>/dev/null || true
wait_for "http://$COORD/healthz" '"status":"degraded"' 200
code=$(curl -s -o "$workdir/partial.json" -w '%{http_code}' \
  "http://$COORD/v1/search?q=document-0042")
[ "$code" = 206 ] || { echo "degraded search answered $code, want 206" >&2; exit 1; }
grep -q '"partial":true' "$workdir/partial.json" || {
  echo "206 body missing partial marker: $(cat "$workdir/partial.json")" >&2; exit 1; }
grep -q '"m2"' "$workdir/partial.json" || {
  echo "206 body does not name the dead member: $(cat "$workdir/partial.json")" >&2; exit 1; }

say "cluster metrics record the outage"
metrics=$(curl -fsS "http://$COORD/metrics")
echo "$metrics" | grep -q 'passjoin_cluster_member_up{member="m2"} 0' || {
  echo "member_up metric wrong:" >&2
  echo "$metrics" | grep '^passjoin_cluster' >&2; exit 1; }
echo "$metrics" | grep -q 'passjoin_cluster_partial_responses_total [1-9]' || {
  echo "partial_responses metric wrong:" >&2
  echo "$metrics" | grep '^passjoin_cluster' >&2; exit 1; }

say "OK"
