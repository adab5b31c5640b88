#!/bin/sh
# Smoke test: build every binary and exercise each one briefly.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)
PIDS=
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$BIN"' EXIT

# wait_addr LOG WORDS: the servers listen on port 0 and print the address
# they bound right after WORDS; poll LOG (up to 5 s) for that line and print
# the address, so a step starts exactly when its listener is up.
wait_addr() {
  n=0
  while [ $n -lt 100 ]; do
    addr=$(sed -n "s/.*$2 \(127\.0\.0\.1:[0-9][0-9]*\).*/\1/p" "$1" | head -1)
    if [ -n "$addr" ]; then
      echo "$addr"
      return 0
    fi
    n=$((n + 1))
    sleep 0.05
  done
  echo "smoke: no '$2' line in $1" >&2
  return 1
}

echo "== build =="
for cmd in expdriver acprobe acpipe acsend acrecv actunnel; do
  go build -o "$BIN/$cmd" "./cmd/$cmd"
done

echo "== expdriver (claims checklist, reduced volume) =="
"$BIN/expdriver" -claims -gb 10 -runs 2 | grep 'claims reproduced'

echo "== acprobe (one live /proc/stat sample) =="
"$BIN/acprobe" -n 1 -interval 100ms | grep '^mean'

echo "== acpipe round trip =="
head -c 1048576 /dev/urandom > "$BIN/in.bin"
"$BIN/acpipe" < "$BIN/in.bin" > "$BIN/in.ac"
"$BIN/acpipe" -d < "$BIN/in.ac" > "$BIN/out.bin"
cmp "$BIN/in.bin" "$BIN/out.bin" && echo "acpipe OK"

echo "== acsend/acrecv =="
"$BIN/acrecv" -listen 127.0.0.1:0 -once > "$BIN/recv.log" &
RECV=$!
PIDS="$PIDS $RECV"
ADDR=$(wait_addr "$BIN/recv.log" "listening on")
"$BIN/acsend" -addr "$ADDR" -gb 0.02 -kind HIGH -window 50ms | head -1
wait $RECV
grep '^received' "$BIN/recv.log"

echo "== actunnel: acsend -> entry -> exit -> acrecv =="
"$BIN/acrecv" -listen 127.0.0.1:0 -once > "$BIN/sink.log" &
SINK=$!
PIDS="$PIDS $SINK"
SINK_ADDR=$(wait_addr "$BIN/sink.log" "listening on")
"$BIN/actunnel" -mode exit -listen 127.0.0.1:0 -target "$SINK_ADDR" -q 2> "$BIN/exit.log" &
PIDS="$PIDS $!"
EXIT_ADDR=$(wait_addr "$BIN/exit.log" "exit endpoint on")
"$BIN/actunnel" -mode entry -listen 127.0.0.1:0 -target "$EXIT_ADDR" -q 2> "$BIN/entry.log" &
PIDS="$PIDS $!"
ENTRY_ADDR=$(wait_addr "$BIN/entry.log" "entry endpoint on")
"$BIN/acsend" -addr "$ENTRY_ADDR" -gb 0.01 -kind MODERATE -window 50ms | head -1
# The sink exits once the whole stream has crossed both relays; the EXIT
# trap stops the two tunnel endpoints.
wait $SINK
grep '^received' "$BIN/sink.log"

echo "smoke: ALL OK"
