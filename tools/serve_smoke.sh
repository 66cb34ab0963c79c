#!/bin/sh
# End-to-end smoke test for the nisqd compile service.
#
# Exercises the serving story against the real binaries:
#   1. a fault-injected daemon (torn reply frame at one request, a
#      handler crash at another) serves the full Table 2 suite to 4
#      concurrent clients — every client retries through the faults and
#      all four end up with byte-identical reply sets;
#   2. an overloaded daemon (1 worker, queue of 1, one injected-slow
#      request pinning the worker) sheds load with structured
#      overloaded replies; clients back off per the server's
#      retry_after_ms hint and all eventually succeed, while the
#      deliberately slow request dies with a non-retryable deadline
#      error (exit 4);
#   3. a --record wire capture round-trips through jsonlint --frame;
#   4. the drain verb exits 0; SIGTERM drains and exits 143;
#   5. a connection storm (200 idle connections) and the same storm
#      against a daemon limited to 64 open files: the daemon answers a
#      ping, survives, and drains on SIGTERM with exit 143;
#   6. no socket or temp files survive any of it.
#
# Usage: tools/serve_smoke.sh   (from the repo root; builds first)
set -eu

note() { printf '[serve-smoke] %s\n' "$*"; }
die() { printf '[serve-smoke] FAIL: %s\n' "$*" >&2; exit 1; }

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
dune build bin/nisqd.exe bin/nisqc.exe tools/jsonlint.exe tools/connstorm.exe
nisqd=$root/_build/default/bin/nisqd.exe
nisqc=$root/_build/default/bin/nisqc.exe
jsonlint=$root/_build/default/tools/jsonlint.exe
connstorm=$root/_build/default/tools/connstorm.exe

tmp=$(mktemp -d "${TMPDIR:-/tmp}/serve-smoke.XXXXXX")
daemon_pid=
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

sock=$tmp/nisqd.sock
benchmarks="bv4 bv6 bv8 hs2 hs4 hs6 fredkin or peres toffoli adder qft2"

wait_ready() {
  i=0
  while ! "$nisqd" call -s "$sock" ping >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || die "daemon did not become ready on $sock"
    sleep 0.1
  done
}

wait_daemon() {
  want=$1
  set +e
  wait "$daemon_pid"
  got=$?
  set -e
  daemon_pid=
  [ "$got" -eq "$want" ] || die "daemon exited $got, expected $want"
  [ ! -e "$sock" ] || die "daemon left its socket behind: $sock"
}

# ---- 1. fault-injected serving, 4 concurrent clients ------------------

note "leg 1: 12 benchmarks x 4 clients under net:torn + server:crash-handler"
"$nisqd" serve -s "$sock" --workers 2 \
  --inject 'net:torn@req2;server:crash-handler@req5' \
  --events "$tmp/events1.jsonl" &
daemon_pid=$!
wait_ready

for c in 1 2 3 4; do
  (
    : > "$tmp/client$c.out"
    for b in $benchmarks; do
      "$nisqc" compile "$b" --connect "$sock" >> "$tmp/client$c.out" \
        || exit 1
    done
  ) &
  eval "client$c=\$!"
done
for c in 1 2 3 4; do
  eval "pid=\$client$c"
  wait "$pid" || die "client $c failed"
done

for c in 2 3 4; do
  cmp -s "$tmp/client1.out" "$tmp/client$c.out" \
    || die "client $c replies differ from client 1 (determinism broken)"
done
[ "$(wc -l < "$tmp/client1.out")" -eq 12 ] || die "expected 12 replies"
note "4 clients, byte-identical reply sets through injected faults"

"$nisqd" call -s "$sock" drain >/dev/null
wait_daemon 0
"$jsonlint" --jsonl "$tmp/events1.jsonl" >/dev/null
grep -q 'handler crashed' "$tmp/events1.jsonl" \
  || die "no handler-crash event recorded"
note "drain verb: exit 0, socket removed, crash handled in-ledger"

# ---- 2. overload: shed, retry_after, deadline -------------------------

note "leg 2: 1 worker + queue of 1 under server:slow -> shed + retries"
"$nisqd" serve -s "$sock" --workers 1 --queue 1 \
  --default-deadline-ms 600 --inject 'server:slow@req0' \
  --events "$tmp/events2.jsonl" &
daemon_pid=$!
wait_ready

# The first work request eats the slow fault and pins the worker until
# its deadline: a non-retryable deadline error, exit 4.
"$nisqd" call -s "$sock" compile bv4 >/dev/null 2>&1 &
slow_pid=$!
sleep 0.2

# Three different programs (distinct coalesce keys) against a full
# queue: at least one is shed and must retry its way in.
for b in bv6 hs2 adder; do
  "$nisqd" call -s "$sock" compile "$b" --attempts 10 >/dev/null &
  eval "over_$b=\$!"
done
for b in bv6 hs2 adder; do
  eval "pid=\$over_$b"
  wait "$pid" || die "overloaded client for $b did not recover"
done
set +e
wait "$slow_pid"
slow_got=$?
set -e
[ "$slow_got" -eq 4 ] || die "slow request exited $slow_got, expected 4 (deadline)"

"$nisqd" call -s "$sock" drain >/dev/null
wait_daemon 0
grep -q 'shedding' "$tmp/events2.jsonl" || die "no shed event recorded"
note "shed + recover verified; slow request died on its deadline"

# ---- 3. wire capture --------------------------------------------------

note "leg 3: --record capture through jsonlint --frame"
"$nisqd" serve -s "$sock" &
daemon_pid=$!
wait_ready
"$nisqd" call -s "$sock" compile bv4 --record "$tmp/wire.bin" >/dev/null
"$jsonlint" --frame "$tmp/wire.bin" >/dev/null || die "frame capture invalid"

# ---- 4. SIGTERM drain -------------------------------------------------

note "leg 4: SIGTERM -> graceful drain, exit 143"
kill -TERM "$daemon_pid"
wait_daemon 143

# ---- 5. connection storms ---------------------------------------------

note "leg 5: 200 idle connections, then a ping on a fresh one"
"$nisqd" serve -s "$sock" &
daemon_pid=$!
wait_ready
"$connstorm" "$sock" 200 > "$tmp/storm.out" || die "storm: no pong"
grep -q '^pong with 200 ' "$tmp/storm.out" \
  || die "storm: ping not answered while 200 connections were open"
kill -TERM "$daemon_pid"
wait_daemon 143

# 100 connections cannot all be accepted under 64 open files: accept
# fails with EMFILE until the idle ones close.
note "leg 5b: the same storm against a daemon limited to 64 open files"
(ulimit -n 64; exec "$nisqd" serve -s "$sock") &
daemon_pid=$!
wait_ready
"$connstorm" "$sock" 100 > "$tmp/storm.out" || die "fd-limited storm: no pong"
kill -TERM "$daemon_pid"
wait_daemon 143
note "both storms answered ($(cat "$tmp/storm.out")); SIGTERM drained both"

note "OK"
