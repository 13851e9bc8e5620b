#!/usr/bin/env sh
# vet.sh — the repo's static-analysis gate, used by CI and by local
# verification. Everything here runs offline against the module cache:
# no downloads, no external tools.
#
#   1. go vet: the stock suite.
#   2. chaos-vet: the repo's own analyzers (internal/analysis/...) over
#      every package.
#   3. gofmt -l: formatting is a gate, not a suggestion.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== chaos-vet"
go run ./cmd/chaos-vet ./...

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "vet.sh: all gates passed"
