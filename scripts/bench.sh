#!/usr/bin/env bash
# bench.sh — run the performance benchmark suite and update BENCH_pr10.json.
#
# Runs the pipeline-level table benchmarks (Table 2 / Table 3; one
# iteration is a full simulated internet scan, so only a few iterations
# each) plus the hot-path micro benchmarks, all with -benchmem, and folds
# the results into a JSON file of the shape
#
#   {"baseline": {name: {ns_per_op, bytes_per_op, allocs_per_op}}, "after": {...}}
#
# The "baseline" section is written once (first run on a tree) and then
# preserved; every subsequent run refreshes "after", so the file always
# carries before/after evidence for the current PR. Table benchmarks are
# run $TABLE_RUNS times (default 3) and the median ns/op is kept: the
# container-grade CPUs this runs on are noisy.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr10.json}"
TABLE_RUNS="${TABLE_RUNS:-3}"
TMP="$(mktemp)"
trap 'rm -f "$TMP" "$TMP.json"' EXIT

echo "==> table benchmarks (${TABLE_RUNS} runs, -benchtime=3x)"
for _ in $(seq "$TABLE_RUNS"); do
	go test -run '^$' -bench 'BenchmarkTable2OpenPorts(Telemetry)?$|BenchmarkTable3Prevalence(Telemetry)?$' \
		-benchtime=3x -benchmem . >>"$TMP"
done

echo "==> micro benchmarks (default benchtime)"
go test -run '^$' -bench 'BenchmarkBlackRock(Un)?[Ss]huffle$|BenchmarkSimnetDial$' -benchmem . >>"$TMP"
go test -run '^$' -bench . -benchmem ./internal/portscan/ >>"$TMP"
go test -run '^$' -bench . -benchmem ./internal/simnet/ >>"$TMP"
go test -run '^$' -bench . -benchmem ./internal/scanner/ >>"$TMP"
go test -run '^$' -bench . -benchmem ./internal/telemetry/ >>"$TMP"

echo "==> orchestrator shard sweep (-benchtime=1x: one iteration is a full scan)"
go test -run '^$' -bench 'BenchmarkScanThroughput' -benchtime=1x -benchmem ./internal/orchestrator/ >>"$TMP"

echo "==> operations plane: serve-off vs serve-on scan (-benchtime=1x; ≤2% overhead budget)"
go test -run '^$' -bench 'BenchmarkScanThroughputServe' -benchtime=1x -benchmem ./internal/obs/ >>"$TMP"

echo "==> adversarial population: hostile-off vs hostile-on scan (-benchtime=1x; off variant gates the ≤2% benign-path overhead budget)"
go test -run '^$' -bench 'BenchmarkScanHostile' -benchtime=1x -benchmem . >>"$TMP"

echo "==> population scale sweep: world setup (lazy vs eager, heap-bytes) and probe throughput at 1x/100x/1000x"
go test -run '^$' -bench 'BenchmarkWorldSetup' -benchtime=1x ./internal/population/ >>"$TMP"
go test -run '^$' -bench 'BenchmarkScanProbeThroughput|BenchmarkLocate' -benchtime=200000x -benchmem ./internal/population/ >>"$TMP"

echo "==> fabric worker sweep vs monolithic (-benchtime=1x: one iteration is a full scan)"
go test -run '^$' -bench 'BenchmarkFabricScan' -benchtime=1x -benchmem ./internal/fabric/ >>"$TMP"

echo "==> mavlint analyzer wall-time (per rule + full suite)"
go test -run '^$' -bench 'BenchmarkAnalyzer|BenchmarkSuite' -benchmem ./internal/lint/ >>"$TMP"

# Parse `go test -bench` output. A benchmark that logs prints its name on
# one line and the measurements on the next, so carry the name forward.
awk '
/^Benchmark/ {
	pending = $1
	if ($0 ~ /ns\/op/) { emit(pending, $0); pending = "" }
	next
}
pending != "" && /ns\/op/ { emit(pending, $0); pending = "" }
function emit(name, line,    f, n, i, ns, b, a, h, r) {
	n = split(line, f)
	ns = 0; b = 0; a = 0; h = 0; r = 0
	for (i = 2; i <= n; i++) {
		if (f[i] == "ns/op")          ns = f[i-1]
		if (f[i] == "B/op")           b  = f[i-1]
		if (f[i] == "allocs/op")      a  = f[i-1]
		if (f[i] == "heap-bytes")     h  = f[i-1]
		if (f[i] == "resident-hosts") r  = f[i-1]
	}
	print name, ns, b, a, h, r
}
' "$TMP" |
	jq -Rn '
		[inputs | split(" ") | {
			name: .[0],
			ns: (.[1] | tonumber),
			b: (.[2] | tonumber),
			a: (.[3] | tonumber),
			h: (.[4] | tonumber),
			r: (.[5] | tonumber)
		}]
		| group_by(.name)
		| map({
			key: .[0].name,
			value: ({
				ns_per_op: (sort_by(.ns) | .[(length - 1) / 2 | floor].ns),
				bytes_per_op: .[0].b,
				allocs_per_op: .[0].a
			}
			+ (if .[0].h > 0 then {heap_bytes: .[0].h} else {} end)
			+ (if .[0].r > 0 then {resident_hosts: .[0].r} else {} end))
		})
		| from_entries
	' >"$TMP.json"

if [ -f "$OUT" ] && jq -e '.baseline' "$OUT" >/dev/null 2>&1; then
	jq --slurpfile fresh "$TMP.json" '.after = $fresh[0]' "$OUT" >"$OUT.tmp"
	mv "$OUT.tmp" "$OUT"
else
	jq -n --slurpfile fresh "$TMP.json" '{baseline: $fresh[0], after: $fresh[0]}' >"$OUT"
fi

echo "bench.sh: wrote $OUT"
