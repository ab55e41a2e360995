#!/bin/sh
# Tier-1 verification: vet, build, the benchmark module under
# perfbench/, then race-enabled tests for the whole module. Mirrors
# `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== perfbench: go vet, go build, go test -race"
(cd perfbench && go vet ./... && go build ./... && go test -race ./...)
echo "== go test -race ./..."
go test -race ./...
echo "check: OK"
