#!/usr/bin/env bash
# Documentation contract check, run as the docs_check ctest:
#
#   1. every repo-relative path referenced in inline code spans of README.md
#      and docs/*.md exists in the tree;
#   2. every --flag mentioned in inline code spans is defined somewhere in
#      the sources / build scripts (so docs can't advertise removed flags);
#   3. docs/RESULTS.md carries the generated-by marker and was rendered by
#      the current tools/render_results template version.
#
# Usage: check_docs.sh <repo-root> [render_results-binary]
set -euo pipefail

ROOT=${1:?usage: check_docs.sh <repo-root> [render_results-binary]}
RENDER=${2:-}
cd "$ROOT"

status=0
DOCS=(README.md docs/*.md)

# Build trees: `build/` (the plain `cmake -B build` tree) plus every
# `${sourceDir}/<dir>` a CMake preset declares as its binaryDir. They exist
# only after someone builds them, so docs may name them on a fresh clone.
BUILD_DIRS=(build)
if [ -f CMakePresets.json ]; then
  while IFS= read -r dir; do
    BUILD_DIRS+=("$dir")
  done < <(grep -oE '"binaryDir"[[:space:]]*:[[:space:]]*"\$\{sourceDir\}/[^"]+"' \
             CMakePresets.json | sed -E 's|.*\$\{sourceDir\}/([^"]+)"$|\1|')
fi

is_build_output() {
  local path=${1#./} dir
  for dir in "${BUILD_DIRS[@]}"; do
    case "$path" in
      "$dir"/*) return 0 ;;
    esac
  done
  return 1
}

# Flags owned by external tools (cmake/ctest/git) that the docs may mention
# but our sources never spell out.
EXTERNAL_FLAGS='^--(output-on-failure|build|preset|target|parallel|config|list-presets)$'

for doc in "${DOCS[@]}"; do
  # Inline code spans only; fenced blocks hold full command lines that mix
  # shell syntax with paths and are too free-form to lint.
  spans=$(grep -o '`[^`]*`' "$doc" | tr -d '`' | sort -u || true)

  # 1. Paths: single tokens containing a slash. Build trees (see
  # BUILD_DIRS) and URLs are runtime artifacts, not tracked files.
  while IFS= read -r token; do
    [ -n "$token" ] || continue
    case "$token" in
      http*|/*|*:*|*BENCH_*) continue ;;
      *' '*|*'='*|*'<'*|*'('*|*'*'*|*'$'*) continue ;;
      */*) ;;
      *) continue ;;
    esac
    if is_build_output "$token"; then
      continue
    fi
    # A bare build-target name (`tools/migrate_sim`) counts as existing
    # when its source does.
    if [ ! -e "$token" ] && [ ! -e "$token.cc" ] && [ ! -e "$token.sh" ]; then
      echo "check_docs: $doc references missing path '$token'" >&2
      status=1
    fi
  done <<< "$spans"

  # 2. Flags: --foo or --foo=BAR tokens must appear in the sources.
  while IFS= read -r flag; do
    [ -n "$flag" ] || continue
    if [[ "$flag" =~ $EXTERNAL_FLAGS ]]; then
      continue
    fi
    if ! grep -rqF -- "$flag" tools bench src tests CMakeLists.txt; then
      echo "check_docs: $doc documents unknown flag '$flag'" >&2
      status=1
    fi
  done < <(printf '%s\n' "$spans" | grep -oE '^--[a-z][a-z-]*' | sort -u || true)
done

# 3. RESULTS.md freshness against the render template.
if [ ! -f docs/RESULTS.md ]; then
  echo "check_docs: docs/RESULTS.md is missing (run tools/render_results)" >&2
  status=1
elif ! grep -q 'Generated by tools/render_results' docs/RESULTS.md; then
  echo "check_docs: docs/RESULTS.md lacks the generated-by marker" >&2
  status=1
elif [ -n "$RENDER" ]; then
  want=$("$RENDER" --print-template-version)
  if ! grep -q "template v${want})" docs/RESULTS.md; then
    echo "check_docs: docs/RESULTS.md is stale (expected template v${want});" \
         "regenerate with tools/render_results" >&2
    status=1
  fi
fi

if [ "$status" -eq 0 ]; then
  echo "check_docs: documentation contract ok"
fi
exit "$status"
