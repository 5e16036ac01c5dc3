#!/usr/bin/env bash
# check_docs.sh — the documentation gate CI runs:
#
#   1. Markdown link check: every relative link in README.md and docs/
#      must point at a file (or directory) that exists in the repo.
#      External links (http/https) are left alone — CI must not flake on
#      the network.
#   2. Godoc audit: every internal/* package must carry a proper
#      `// Package <name>` doc comment in at least one of its Go files.
#   3. Stale identifiers: every backticked CamelCase identifier in
#      README.md and docs/*.md (a dotted path such as `jit.StaticPlan`
#      counts each CamelCase component) must occur as a word on a
#      non-comment line of some .go file under internal/, cmd/, examples/
#      or the repo root, so deleting a type or function cannot leave the
#      docs naming it. Names that are not Go identifiers of this module go
#      in the allowlist below.
#   4. Stale flags: every `-flag` inside a backticked span of README.md and
#      docs/*.md must be registered as a string literal by a
#      fs.X("name", ...) or flag.X("name", ...) call (or the XVar form)
#      under cmd/ or internal/, so a deleted flag cannot linger in the
#      docs. Flags of the go tool go in the allowlist below.
#
# Exits non-zero listing every violation.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative markdown links -------------------------------------------
for f in README.md docs/*.md; do
  [ -f "$f" ] || continue
  dir=$(dirname "$f")
  # Extract (text)(target) pairs; keep the target, strip #anchors.
  grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//; s/#.*$//' | while read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK: $f -> $target"
    fi
  done
done > /tmp/doc_link_failures.$$ 2>&1
if [ -s /tmp/doc_link_failures.$$ ]; then
  cat /tmp/doc_link_failures.$$
  fail=1
fi
rm -f /tmp/doc_link_failures.$$

# --- 2. package doc comments ----------------------------------------------
for d in $(find internal -type d | sort); do
  ls "$d"/*.go >/dev/null 2>&1 || continue
  if ! grep -lq '^// Package ' "$d"/*.go 2>/dev/null; then
    echo "MISSING PACKAGE DOC: $d"
    fail=1
  fi
done

# --- 3. stale identifiers in the docs --------------------------------------
# jmethodID is real JNI's method handle, which the docs compare upcall
# resolution to; it is no identifier of this module.
allow="jmethodID"
code=$(mktemp)
{ find internal cmd examples -name '*.go'; ls ./*.go; } 2>/dev/null |
  xargs grep -hv '^[[:space:]]*//' > "$code"
for name in $(grep -ohE '`[A-Za-z_][A-Za-z0-9_.]*(\(\))?`' README.md docs/*.md |
    tr -d '`()' | tr '.' '\n' | grep -E '[a-z][A-Z]' | sort -u); do
  case " $allow " in *" $name "*) continue ;; esac
  if ! grep -qw -- "$name" "$code"; then
    echo "STALE IDENTIFIER: \`$name\` is named in the docs but in no Go code"
    fail=1
  fi
done
rm -f "$code"

# --- 4. stale flags in the docs --------------------------------------------
goflags="-race -run -bench -benchtime -benchmem -count -cpu -fuzz -fuzztime -timeout -v"
registered=$(grep -rhoE '\b(fs|flag)\.[A-Z][A-Za-z0-9]*\((&[A-Za-z0-9_.]+, )?"[A-Za-z0-9-]+"' \
    --include='*.go' cmd internal | sed -E 's/.*"([^"]+)"$/-\1/' | sort -u)
for name in $(grep -ohE '`[^`]+`' README.md docs/*.md |
    grep -oE '(^`|[][ (|=])-[A-Za-z][A-Za-z0-9-]*' | cut -c2- | sort -u); do
  case " $goflags " in *" $name "*) continue ;; esac
  if ! grep -qxF -- "$name" <<< "$registered"; then
    echo "STALE FLAG: \`$name\` is named in the docs but registered by no command"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
