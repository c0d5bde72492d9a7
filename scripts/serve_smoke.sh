#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the simulation-as-a-service path
# (make serve-smoke). Exercises the full client/daemon contract:
#
#   1. paperfigd starts on an empty store and answers /healthz.
#   2. `paperfig -fig 3 -tiny -server URL` streams tables over HTTP whose
#      stdout is byte-identical to the same run in process.
#   3. A SIGTERM mid-flight drains gracefully: a request issued before the
#      signal still completes, and the daemon exits 0.
#   4. paperfigd restarted on the same store loads its log: the same
#      request is byte-identical again and executes nothing, every job a
#      disk hit.
#
# Pure POSIX sh so it runs identically locally and in CI.
set -eu
cd "$(dirname "$0")/.."

PORT="${SERVE_SMOKE_PORT:-18080}"
URL="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
	[ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building"
go build -o "$TMP/paperfigd" ./cmd/paperfigd
go build -o "$TMP/paperfig" ./cmd/paperfig

# start_daemon launches paperfigd on the smoke's store and waits for it to
# answer its liveness probe (the Go binary starts in well under a second;
# 10s covers a loaded CI machine).
start_daemon() {
	echo "serve-smoke: starting paperfigd on $URL"
	"$TMP/paperfigd" -addr "127.0.0.1:$PORT" -cache-dir "$TMP/simcache" \
		-drain-timeout 2m >>"$TMP/daemon.log" 2>&1 &
	DAEMON_PID=$!
	i=0
	until curl -sf "$URL/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "serve-smoke: daemon never became healthy"
			cat "$TMP/daemon.log"
			exit 1
		fi
		kill -0 "$DAEMON_PID" 2>/dev/null || {
			echo "serve-smoke: daemon died on startup"
			cat "$TMP/daemon.log"
			exit 1
		}
		sleep 0.1
	done
}

start_daemon

echo "serve-smoke: local vs served -fig 3 -tiny"
"$TMP/paperfig" -fig 3 -tiny >"$TMP/local.out" 2>/dev/null
"$TMP/paperfig" -fig 3 -tiny -server "$URL" >"$TMP/served.out" 2>/dev/null
if ! diff -u "$TMP/local.out" "$TMP/served.out"; then
	echo "serve-smoke: served tables differ from the local run"
	exit 1
fi
if [ ! -s "$TMP/served.out" ]; then
	echo "serve-smoke: served run produced no output"
	exit 1
fi

echo "serve-smoke: scheduler stats after serving:"
curl -sf "$URL/statsz" | grep -E '"(submitted|executed|mem_hits)"' || true

echo "serve-smoke: graceful drain under SIGTERM"
# Launch a fresh (cold: different seed) request, give it a beat to reach the
# server, then SIGTERM the daemon. Graceful drain means this client still
# gets its tables and the daemon exits cleanly.
"$TMP/paperfig" -fig 3 -tiny -seed 7 -server "$URL" >"$TMP/drain.out" 2>"$TMP/drain.err" &
CLIENT_PID=$!
sleep 0.5
kill -TERM "$DAEMON_PID"
if ! wait "$CLIENT_PID"; then
	echo "serve-smoke: in-flight client failed during drain"
	cat "$TMP/drain.err"
	cat "$TMP/daemon.log"
	exit 1
fi
if [ ! -s "$TMP/drain.out" ]; then
	echo "serve-smoke: in-flight client got no tables during drain"
	exit 1
fi
if ! wait "$DAEMON_PID"; then
	echo "serve-smoke: daemon exited non-zero after SIGTERM"
	cat "$TMP/daemon.log"
	exit 1
fi
DAEMON_PID=""

echo "serve-smoke: restart on the same store"
start_daemon
"$TMP/paperfig" -fig 3 -tiny -stats -server "$URL" >"$TMP/restart.out" 2>"$TMP/restart.err"
if ! diff -u "$TMP/local.out" "$TMP/restart.out"; then
	echo "serve-smoke: tables served after the restart differ from the local run"
	exit 1
fi
line=$(grep '^scheduler:' "$TMP/restart.err" || true)
echo "serve-smoke: after the restart, $line"
field() { printf '%s\n' "$line" | sed -n "s/.* $1=\([0-9]*\).*/\1/p"; }
submitted=$(field submitted)
executed=$(field executed)
disk_hits=$(field disk-hits)
if [ -z "$submitted" ] || [ "$submitted" -eq 0 ] || [ "$executed" != 0 ] || [ "$disk_hits" != "$submitted" ]; then
	echo "serve-smoke: the restarted daemon did not serve every job from its store"
	cat "$TMP/restart.err"
	exit 1
fi
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
	echo "serve-smoke: restarted daemon exited non-zero after SIGTERM"
	cat "$TMP/daemon.log"
	exit 1
fi
DAEMON_PID=""

echo "serve-smoke: OK"
