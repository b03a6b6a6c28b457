#!/usr/bin/env bash
# verify.sh — the gate every change must pass before merge.
#
# Runs the build, go vet, the repo's own static-analysis suite (mavlint,
# see internal/lint), the short test suite, and the short suite under the
# race detector. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build"
go build ./...

echo "==> go vet"
go vet ./...

echo "==> mavlint (all eight rules, full module, baseline diff)"
go run ./cmd/mavlint -baseline lint.baseline ./...

echo "==> mavlint -format json (machine-readable findings for CI)"
go run ./cmd/mavlint -format json ./... >mavlint-findings.json || {
	cat mavlint-findings.json
	exit 1
}

echo "==> orchestrator smoke (sharded run + kill/resume)"
go test -short -run 'TestOrchestratorSmoke|TestResumeRejectsChangedPlan|TestFileStoreResumesAcrossReopen' -v ./internal/orchestrator/ | tail -n 2

echo "==> go test -short"
go test -short ./...

echo "==> go test -short -race"
go test -short -race ./...

echo "==> e2ebench self-test (the benchmark still builds against the stage APIs)"
(cd e2ebench && go test ./...)

echo "verify.sh: all checks passed"
