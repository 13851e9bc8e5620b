#!/usr/bin/env sh
# vet.sh — the repo's static-analysis gate, used by CI and by local
# verification. Everything here runs offline against the module cache:
# no downloads, no external tools.
#
#   1. go vet: the stock suite, over the root module and over bench/,
#      a module of its own (replace chaos => ../) that the root ./...
#      pattern never reaches.
#   2. gofmt -l: formatting is a gate, not a suggestion.
#
# The determinism rules (no map order, host clock or global math/rand in
# the engine) are held by tests, not here; DESIGN.md "Determinism as an
# enforced invariant" names them.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...
(cd bench && go vet ./...)

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "vet.sh: all gates passed"
