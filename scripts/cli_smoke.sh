#!/usr/bin/env bash
# Vault life cycle through the command-line tools: put -> checkpoint ->
# put -> checkpoint -> put. Every document must still be found (snapshot
# plus WAL tail), and `vault_admin status` must list both snapshot
# generations. Usage:
#   scripts/cli_smoke.sh [build-dir]    # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
CLI="$BUILD/examples/sse_cli"
ADMIN="$BUILD/examples/vault_admin"
VAULT="$(mktemp -d)"
trap 'rm -rf "$VAULT"' EXIT

"$CLI" "$VAULT" put 1 "meeting notes" --kw work,notes
"$CLI" "$VAULT" checkpoint
"$CLI" "$VAULT" put 2 "travel notes" --kw travel,notes
"$CLI" "$VAULT" checkpoint
"$CLI" "$VAULT" put 3 "more notes" --kw notes

found="$("$CLI" "$VAULT" search notes)"
echo "$found"
grep -qx "3 match(es)" <<<"$found"

status="$("$ADMIN" "$VAULT" status)"
echo "$status"
[[ "$(grep -c '^snapshot g' <<<"$status")" == 2 ]]
echo "cli_smoke: ok"
