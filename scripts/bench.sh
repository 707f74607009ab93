#!/usr/bin/env bash
# Run the Detect benchmarks, the serving handler benchmarks
# (BenchmarkServe*) and the training benchmarks (BenchmarkTrainer,
# BenchmarkTrainProfiles) and write the results as JSON so the
# performance trajectory is tracked per PR. Usage:
#
#   scripts/bench.sh [OUT.json] [BENCHTIME] [BASELINE.json]
#
# Defaults: OUT=BENCH.json, BENCHTIME=200ms (raise for stable numbers,
# e.g. scripts/bench.sh BENCH.json 1s).
#
# When BASELINE.json (a previous run's output, e.g. the committed
# BENCH_pr11.json) is given, the single-document Detect hot-path
# benchmarks (BenchmarkDetector and BenchmarkDetectorBackends/*) and
# the segmentation benchmarks (BenchmarkDetectSpans/*) are diffed
# against it and the run fails if any benchmark present in both files
# regressed by more than REGRESSION_PCT (default 20%). Backends new in
# this run have no baseline entry and are reported, not gated; the
# handler and training benchmarks are recorded, not gated. Baseline
# entries this run did not produce (deleted or renamed benchmarks) are
# listed, not gated. The run also fails when no gated benchmark of this
# run has a baseline entry at all, so a rename cannot leave the gate
# passing with nothing checked.
#
# Every run also gates a same-run ratio: BenchmarkDetectSpans/direct-lookup
# must cost at most 2.5 times BenchmarkDetectorBackends/direct-lookup,
# the same document without segmentation, comparing medians of 5
# interleaved runs at -cpu 1. Both numbers come from this run on this
# machine, so the gate holds whatever machine the baseline was
# measured on. The same ratio at n = 6 (the n6 rows, where the probe
# tables count through the kernel interface) and over 17 languages (the
# l17 rows, past one mask plane, where every chunk takes the int
# Viterbi step) is measured the same way and reported, not gated.
set -euo pipefail

out=${1:-BENCH.json}
benchtime=${2:-200ms}
baseline=${3:-}
regression_pct=${REGRESSION_PCT:-20}
spans_ratio=2.5
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
raw=$tmp/raw.txt

go test -run '^$' -bench 'Detect|Serve|Train' -benchtime "$benchtime" -benchmem ./... | tee "$raw" >&2

awk -v goversion="$(go version | awk '{print $3}')" '
BEGIN { n = 0 }
/^Benchmark/ && NF >= 3 {
  name = $1; iters = $2; ns = ""; bop = ""; aop = ""
  # Strip the -GOMAXPROCS suffix go test appends on multi-core
  # machines, so result names are machine-independent and diffable.
  sub(/-[0-9]+$/, "", name)
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    if ($(i+1) == "B/op") bop = $i
    if ($(i+1) == "allocs/op") aop = $i
  }
  if (ns == "") next
  line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
  if (bop != "") line = line sprintf(", \"bytes_per_op\": %s", bop)
  if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
  line = line "}"
  bench[n++] = line
}
END {
  printf "{\n"
  printf "  \"go\": \"%s\",\n", goversion
  printf "  \"benchmarks\": [\n"
  for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n-1 ? "," : "")
  printf "  ]\n"
  printf "}\n"
}' "$raw" > "$out"

count=$(grep -c '"name"' "$out" || true)
[ "$count" -gt 0 ] || { echo "bench: no benchmark results parsed" >&2; exit 1; }
echo "bench: wrote $count results to $out" >&2

# The ratio gate times the pair on its own, interleaved 5 times
# at -cpu 1, and compares medians: one run of each on a shared runner
# is too noisy to gate on.
go test -c -o "$tmp/bloomlang.test" .
# pair PATTERN runs the benchmarks PATTERN matches 5 times at -cpu 1.
pair() {
  for _ in 1 2 3 4 5; do
    "$tmp/bloomlang.test" -test.run '^$' -test.bench "$1" -test.cpu 1 -test.benchtime "$benchtime"
  done | tee "$raw" >&2
}
median='
function median(a, n,    i, j, t) {
  for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
  return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}'
pair '(DetectorBackends|DetectSpans)/direct-lookup'
awk -v limit="$spans_ratio" "$median"'
$1 ~ /^BenchmarkDetectSpans\/direct-lookup/ { spans[++ns] = $3 }
$1 ~ /^BenchmarkDetectorBackends\/direct-lookup/ { detect[++nd] = $3 }
END {
  if (ns == 0 || nd == 0) { print "bench: segmentation ratio: benchmarks missing" > "/dev/stderr"; exit 1 }
  ratio = median(spans, ns) / median(detect, nd)
  status = ratio <= limit ? "ok" : "EXCEEDED"
  printf "bench:   %-5s DetectSpans/direct-lookup = %.2fx DetectorBackends/direct-lookup (medians of %d runs at -cpu 1, limit %.2fx)\n", status, ratio, ns, limit > "/dev/stderr"
  exit ratio <= limit ? 0 : 1
}' "$raw" || {
  echo "bench: segmentation costs more than ${spans_ratio}x one Detect in this run" >&2
  exit 1
}

# report ROW measures the ratio on the ROW sub-benchmarks and prints
# it, not gated. Go matches each "/" level of -test.bench on its own,
# so each row needs its own pattern.
report() {
  pair "(DetectorBackends|DetectSpans)/$1/direct-lookup"
  awk -v row="$1" "$median"'
  $1 ~ "^BenchmarkDetectSpans/" row "/direct-lookup" { spans[++ns] = $3 }
  $1 ~ "^BenchmarkDetectorBackends/" row "/direct-lookup" { detect[++nd] = $3 }
  END {
    if (ns == 0 || nd == 0) { print "bench: " row " segmentation ratio: benchmarks missing" > "/dev/stderr"; exit }
    printf "bench:   report DetectSpans/%s/direct-lookup = %.2fx DetectorBackends/%s/direct-lookup (medians of %d runs at -cpu 1, not gated)\n", row, median(spans, ns) / median(detect, nd), row, ns > "/dev/stderr"
  }' "$raw"
}
report n6
report l17

if [ -n "$baseline" ]; then
  if [ ! -r "$baseline" ]; then
    echo "bench: baseline $baseline not readable" >&2
    exit 1
  fi
  echo "bench: gating Detect hot path against $baseline (limit +${regression_pct}%)" >&2
  awk -v pct="$regression_pct" '
  # Both files use the one-benchmark-per-line format this script writes,
  # so a line-oriented parse is enough: pull out name and ns_per_op.
  function parse(line) {
    name = ""; ns = ""
    if (match(line, /"name": "[^"]+"/)) {
      name = substr(line, RSTART + 9, RLENGTH - 10)
      # Tolerate baselines written before the -GOMAXPROCS suffix was
      # stripped at generation time.
      sub(/-[0-9]+$/, "", name)
    }
    if (match(line, /"ns_per_op": [0-9.]+/)) {
      ns = substr(line, RSTART + 13, RLENGTH - 13)
    }
  }
  # Gate the single-document Detect hot path and the segmentation hot
  # path; Rank/Batch allocate or fan out by design and are tracked but
  # not gated.
  function gated(name) {
    return name == "BenchmarkDetector" || name ~ /^BenchmarkDetectorBackends\// || name ~ /^BenchmarkDetectSpans\//
  }
  NR == FNR {
    parse($0)
    if (name != "" && ns != "" && !(name in base)) order[++nbase] = name
    if (name != "" && ns != "") base[name] = ns
    next
  }
  {
    parse($0)
    if (name != "") ran[name] = 1
    if (name == "" || ns == "" || !gated(name)) next
    if (!(name in base)) {
      printf "bench:   new   %-45s %12.0f ns/op (no baseline)\n", name, ns
      next
    }
    matched++
    delta = 100 * (ns - base[name]) / base[name]
    status = "ok"
    if (delta > pct) { status = "REGRESSED"; failed = 1 }
    printf "bench:   %-5s %-45s %12.0f -> %.0f ns/op (%+.1f%%)\n", status, name, base[name], ns, delta
  }
  END {
    # Report, never gate, what the baseline holds and this run did not
    # produce: a deleted or renamed benchmark.
    for (i = 1; i <= nbase; i++)
      if (!(order[i] in ran)) printf "bench:   gone  %-45s %12.0f ns/op (baseline only, not run)\n", order[i], base[order[i]]
    if (!matched) { print "bench:   no gated benchmark of this run has a baseline entry"; exit 1 }
    exit failed ? 1 : 0
  }
  ' "$baseline" "$out" >&2 || {
    echo "bench: Detect regressed more than ${regression_pct}% against $baseline" >&2
    exit 1
  }
fi
