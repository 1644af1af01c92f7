#!/usr/bin/env bash
# Serve/store smoke: starts cme-serve on 127.0.0.1:PORT with a fresh
# artifact store in STORE_DIR, replays every tests/corpus case twice
# through the cmetool client (a cold pass, then a warm pass), and fails
# unless the warm pass was answered from the persistent store
# (`ok.engine.store_hits` >= 1 in the `stats` op; docs/SERVE.md).
#
# Usage, from the repository root after `cargo build --release`:
#     scripts/serve-smoke.sh PORT STORE_DIR
set -euo pipefail

usage="usage: scripts/serve-smoke.sh PORT STORE_DIR"
addr="127.0.0.1:${1:?$usage}"
store="${2:?$usage}"
bin=target/release

rm -rf "$store"
"$bin/cme-serve" --tcp "$addr" --store "$store" &
server=$!
trap 'kill "$server" 2>/dev/null || true' EXIT

for _ in $(seq 50); do
  "$bin/cmetool" client --op ping --connect "$addr" >/dev/null 2>&1 && break
  sleep 0.2
done
for _pass in cold warm; do
  for f in tests/corpus/*.cme; do
    "$bin/cmetool" client --file "$f" --connect "$addr" --json >/dev/null
  done
done

stats=$("$bin/cmetool" client --op stats --connect "$addr" --json)
echo "$stats"
hits=$(echo "$stats" | python3 -c 'import json, sys; print(json.load(sys.stdin)["ok"]["engine"]["store_hits"])')
if [ "$hits" -lt 1 ]; then
  echo "warm replay never hit the artifact store"
  exit 1
fi

"$bin/cmetool" client --op shutdown --connect "$addr" >/dev/null
wait "$server"
