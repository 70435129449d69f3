#!/bin/sh
# Runs the kernel and sweep-engine benchmarks and writes out.json
# (default BENCH_local.json; ns/op per benchmark plus the engine-vs-naive
# sweep speedups).
#
#   scripts/bench.sh [out.json]
#
# The benchmark set deliberately stays small and training-free so it
# completes in CI time budgets.
set -eu

out=${1:-BENCH_local.json}
pattern='^(BenchmarkLayerSweepClassCaps|BenchmarkLayerSweepClassCapsNaive|BenchmarkGroupSweepEngine|BenchmarkGroupSweepNaive|BenchmarkMethodologyGroupSweepSmall|BenchmarkInferenceDeepCaps|BenchmarkInferenceApproxSoftmax|BenchmarkConv2DKernel|BenchmarkQuantConv2DExact|BenchmarkQuantConv2DLUT|BenchmarkQuantCapsVotes)$'

raw=$(go test -run '^$' -bench "$pattern" -benchtime=10x .)
echo "$raw"

echo "$raw" | awk -v out="$out" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix, if any
    ns[name] = $3
    order[n++] = name
}
END {
    printf "{\n" > out
    printf "  \"benchmarks\": {\n" >> out
    for (i = 0; i < n; i++) {
        printf "    \"%s\": {\"ns_per_op\": %s}%s\n", order[i], ns[order[i]], (i < n - 1 ? "," : "") >> out
    }
    printf "  },\n" >> out
    printf "  \"speedups\": {\n" >> out
    printf "    \"layer_sweep_classcaps\": %.2f,\n", ns["BenchmarkLayerSweepClassCapsNaive"] / ns["BenchmarkLayerSweepClassCaps"] >> out
    printf "    \"group_sweep\": %.2f\n", ns["BenchmarkGroupSweepNaive"] / ns["BenchmarkGroupSweepEngine"] >> out
    printf "  }\n" >> out
    printf "}\n" >> out
}
'
echo "wrote $out"
