#!/usr/bin/env bash
# Net line count of a change, per top-level directory: lines added, removed
# and added minus removed under src/, tests/, bench/, docs/, examples/ and
# scripts/, from `git diff --numstat <base-rev>` — the working tree against
# the base, so staged and unstaged edits to tracked files count (stage new
# files, or mark them with `git add -N`, so the diff sees them).
#
#   scripts/net_lines.sh <base-rev>
#
# Binary files count zero lines.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
git -C "${repo_root}" diff --numstat --no-renames "$1" -- |
  awk '
    BEGIN {
      n = split("src tests bench docs examples scripts", dirs, " ")
      for (i = 1; i <= n; ++i) { added[dirs[i]] = 0; removed[dirs[i]] = 0 }
    }
    {
      top = $3
      sub(/\/.*/, "", top)
      if (!(top in added)) next
      if ($1 != "-") added[top] += $1
      if ($2 != "-") removed[top] += $2
    }
    END {
      printf "%-10s %8s %8s %8s\n", "dir", "added", "removed", "net"
      for (i = 1; i <= n; ++i) {
        d = dirs[i]
        printf "%-10s %8d %8d %+8d\n", d, added[d], removed[d],
               added[d] - removed[d]
      }
    }'
