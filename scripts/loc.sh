#!/usr/bin/env sh
# loc.sh — Go line counts outside bench/: non-test and test lines, in
# total and per package (directory), as ROADMAP item 10's table and the
# CHANGES entries report them. Every line of every .go file counts,
# comments and blank lines included.
#
#   scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' -not -path './bench/*' -not -path './.git/*' |
    LC_ALL=C sort |
    xargs wc -l |
    awk '
        $2 == "total" { next }
        {
            path = substr($2, 3)
            pkg = path
            if (sub(/\/[^\/]*$/, "", pkg) == 0) pkg = "."
            if (path ~ /_test\.go$/) { test[pkg] += $1; tt += $1 }
            else { code[pkg] += $1; tc += $1 }
            seen[pkg] = 1
        }
        END {
            printf "%8s %8s  %s\n", "non-test", "test", "package"
            printf "%8d %8d  %s\n", tc, tt, "total"
            n = 0
            for (p in seen) pkgs[++n] = p
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && pkgs[j-1] > pkgs[j]; j--) {
                    t = pkgs[j]; pkgs[j] = pkgs[j-1]; pkgs[j-1] = t
                }
            for (i = 1; i <= n; i++)
                printf "%8d %8d  %s\n", code[pkgs[i]], test[pkgs[i]], pkgs[i]
        }'
