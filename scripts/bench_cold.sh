#!/usr/bin/env bash
# Tracks the cold-path perf trajectory of the pipelined concurrent
# resolver: runs 8 concurrent cold submissions of one multi-benchmark,
# multi-model grid deduped through the singleflight caches of a shared
# System against the same 8 submissions each paying its builds
# privately on the pre-pipelining serial path, plus the lone-submission
# pipelined/serial pair, captures CPU and allocation profiles of the
# cold runs, and writes the results plus the headline speedup ratio as
# BENCH_cold.json at the repo root. The deduped/duplicated ratio is the
# acceptance metric of the pipelined cold path (>= 3x); CI asserts it
# from a fresh run and uploads the profiles as artifacts. The per-op
# build counters are the singleflight evidence: deduped must report
# exactly one build per distinct key (8 models, 2 goldens, 8 hazards
# for this grid), duplicated 8x that.
#
#   ./scripts/bench_cold.sh            # default -benchtime 3x
#   BENCHTIME=10x ./scripts/bench_cold.sh
#
# Profiles land in PROFILE_DIR (default bench_profiles/, git-ignored):
#   go tool pprof bench_profiles/cold_cpu.pprof
#   go tool pprof -sample_index=alloc_space bench_profiles/cold_mem.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
profdir="${PROFILE_DIR:-bench_profiles}"
mkdir -p "$profdir"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkColdSubmissionsDeduped$|BenchmarkColdSubmissionsDuplicated$|BenchmarkColdGridPipelined$|BenchmarkColdGridSerial$' \
  -benchtime "$benchtime" -count 1 -benchmem \
  -cpuprofile "$profdir/cold_cpu.pprof" \
  -memprofile "$profdir/cold_mem.pprof" \
  . | tee "$raw"

# The run's environment, so the snapshot states where its numbers come
# from.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
[ -z "$(git status --porcelain --untracked-files=no 2>/dev/null)" ] || commit="$commit+modified"
gover=$(go env GOVERSION)
cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)

awk -v benchtime="$benchtime" -v commit="$commit" -v gover="$gover" -v cpu="$cpu" '
  /^Benchmark/ {
    name = $1
    procs = 1  # go test names no suffix when GOMAXPROCS is 1
    if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns[name] = $3
    extra = ""
    # Trailing "<value> <unit>" metric pairs: the singleflight build
    # counters reported by the contention benches.
    for (i = 5; i + 1 <= NF; i += 2) {
      unit = $(i + 1)
      if (unit == "models-built" || unit == "goldens-recorded" || unit == "hazards-built") {
        key = unit
        gsub(/-/, "_", key)
        extra = extra sprintf(", \"%s\": %.0f", key, $i)
      }
    }
    lines[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, $2, $3, extra)
  }
  END {
    print "{"
    printf "  \"env\": {\"commit\": \"%s\", \"go\": \"%s\", \"gomaxprocs\": %s, \"cpu\": \"%s\"},\n", commit, gover, procs, cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"results\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ],"
    dd = ns["BenchmarkColdSubmissionsDeduped"]
    dup = ns["BenchmarkColdSubmissionsDuplicated"]
    pipe = ns["BenchmarkColdGridPipelined"]
    serial = ns["BenchmarkColdGridSerial"]
    printf "  \"duplicated_over_deduped\": %.2f,\n", (dd > 0 ? dup / dd : 0)
    printf "  \"serial_over_pipelined\": %.2f\n", (pipe > 0 ? serial / pipe : 0)
    print "}"
  }
' "$raw" > BENCH_cold.json

echo "wrote BENCH_cold.json; profiles in $profdir/"
