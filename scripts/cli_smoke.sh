#!/usr/bin/env bash
# Vault life cycle through the command-line tools: put -> checkpoint ->
# put -> checkpoint -> put. Every document must still be found (snapshot
# plus WAL tail), also with SSE_RETRY_ATTEMPTS=0, `vault_admin status`
# must list both snapshot generations, and `sse_cli stats` must print the
# engine's registry counters. A second, Scheme 3 vault runs put ->
# checkpoint -> put; its documents must be found the same way, and stats
# must list the resume cache. Usage:
#   scripts/cli_smoke.sh [build-dir]    # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
CLI="$BUILD/examples/sse_cli"
ADMIN="$BUILD/examples/vault_admin"
VAULT="$(mktemp -d)"
S3_VAULT="$(mktemp -d)"
trap 'rm -rf "$VAULT" "$S3_VAULT"' EXIT

"$CLI" "$VAULT" put 1 "meeting notes" --kw work,notes
"$CLI" "$VAULT" checkpoint
"$CLI" "$VAULT" put 2 "travel notes" --kw travel,notes
"$CLI" "$VAULT" checkpoint
"$CLI" "$VAULT" put 3 "more notes" --kw notes

found="$("$CLI" "$VAULT" search notes)"
echo "$found"
grep -qx "3 match(es)" <<<"$found"

# A retry setting below 1 means one attempt, on searches as on puts.
found="$(SSE_RETRY_ATTEMPTS=0 "$CLI" "$VAULT" search notes)"
echo "$found"
grep -qx "3 match(es)" <<<"$found"

status="$("$ADMIN" "$VAULT" status)"
echo "$status"
[[ "$(grep -c '^snapshot g' <<<"$status")" == 2 ]]

stats="$("$CLI" "$VAULT" stats)"
echo "$stats"
grep -q '^sse_engine_requests_total ' <<<"$stats"

export SSE_SCHEME=scheme3
"$CLI" "$S3_VAULT" put 1 "draft notes" --kw work,notes
"$CLI" "$S3_VAULT" checkpoint
"$CLI" "$S3_VAULT" put 2 "final notes" --kw notes
for attempts in 5 0; do  # the default, and one attempt
  found="$(SSE_RETRY_ATTEMPTS=$attempts "$CLI" "$S3_VAULT" search notes)"
  echo "$found"
  grep -qx "2 match(es)" <<<"$found"
done
stats="$("$CLI" "$S3_VAULT" stats)"
echo "$stats"
grep -q '^sse_s3_resume_cache_entries ' <<<"$stats"
echo "cli_smoke: ok"
