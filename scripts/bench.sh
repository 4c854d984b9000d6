#!/bin/sh
# Record a benchmark snapshot for the execution strategies, at
# parallelism 1, at the full worker sweep, across the shard-count
# sweep (1/2/4 shards of the scatter-gather layer), and for the
# incremental-maintenance path (ApplyDelta repair vs BuildVersioned
# cold rebuild on a mutated 200k-row relation), into a JSON file (one
# object per benchmark, plus environment metadata).
# Perf PRs record a new snapshot (e.g. BENCH_pr2.json) and compare it
# against the committed trajectory (BENCH_baseline.json, ...).
#
# With -perf, each benchmark group additionally runs under
# `perf stat` and the snapshot gains one "_perf_<group>" object per
# group with hardware counters (cycles, instructions, IPC, cache
# references/misses). Requires a working `perf` with permission to
# read the counters (kernel.perf_event_paranoid); silently skipped
# with a notice when unavailable, so CI and containers without perf
# still produce a full snapshot.
#
# Usage: scripts/bench.sh [-count N] [-o outfile] [-perf] [benchtime]
#        scripts/bench.sh -compare old.json new.json
#   -count N    passes -count=N to `go test` (repeat each benchmark
#               N times; the JSON keeps the last line per benchmark)
#   -o outfile  output JSON path (default BENCH_baseline.json)
#   -perf       capture hardware counters per benchmark group
#   benchtime   go benchtime, default 3x
#   -compare    print per-benchmark ns/op and B/op deltas between two
#               recorded snapshots (negative = new is better)
set -eu

cd "$(dirname "$0")/.."

# compare_snapshots prints a delta table between two snapshot files
# produced by this script.
compare_snapshots() {
    old="$1"; new="$2"
    [ -r "$old" ] || { echo "cannot read $old" >&2; exit 1; }
    [ -r "$new" ] || { echo "cannot read $new" >&2; exit 1; }
    awk -F'"' '
    function metric(line, name,   v) {
        if (match(line, name "\": [0-9.]+")) {
            v = substr(line, RSTART + length(name) + 3, RLENGTH - length(name) - 3)
            return v + 0
        }
        return -1
    }
    /^  "Benchmark/ {
        name = $2
        ns = metric($0, "ns_per_op")
        b = metric($0, "bytes_per_op")
        if (FNR == NR) { oldns[name] = ns; oldb[name] = b; next }
        if (name in oldns) {
            dns = (oldns[name] > 0) ? 100 * (ns - oldns[name]) / oldns[name] : 0
            db = (oldb[name] > 0) ? 100 * (b - oldb[name]) / oldb[name] : 0
            printf "%-55s %12d -> %-12d ns/op %+7.1f%%   %10d -> %-10d B/op %+7.1f%%\n", \
                name, oldns[name], ns, dns, oldb[name], b, db
        } else {
            printf "%-55s %27s new: %d ns/op, %d B/op\n", name, "", ns, b
        }
    }
    ' "$old" "$new"
}

count=1
out="BENCH_baseline.json"
perf=0
while [ $# -gt 0 ]; do
    case "$1" in
        -count) count="$2"; shift 2 ;;
        -o) out="$2"; shift 2 ;;
        -perf) perf=1; shift ;;
        -compare)
            [ $# -eq 3 ] || { echo "usage: scripts/bench.sh -compare old.json new.json" >&2; exit 2; }
            compare_snapshots "$2" "$3"
            exit 0 ;;
        -*) echo "usage: scripts/bench.sh [-count N] [-o outfile] [-perf] [benchtime] | -compare old.json new.json" >&2; exit 2 ;;
        *) break ;;
    esac
done
benchtime="${1:-3x}"
raw="$(mktemp)"
perfraw="$(mktemp)"
trap 'rm -f "$raw" "$perfraw"' EXIT

# perf is usable only if the binary exists AND counter access is
# permitted (perf_event_paranoid and container seccomp both gate it);
# probe with a trivial stat rather than trusting `command -v` alone.
if [ "$perf" = 1 ]; then
    if ! command -v perf >/dev/null 2>&1 ||
        ! perf stat -e cycles true >/dev/null 2>&1; then
        echo "perf unavailable or unpermitted; skipping hardware counters" >&2
        perf=0
    fi
fi

# run_group BENCHREGEX PKG GROUPNAME runs one benchmark group,
# appending its go output to $raw; with -perf it wraps the run in
# `perf stat -x,` and appends "GROUPNAME,<csv>" lines to $perfraw.
run_group() {
    regex="$1"; pkg="$2"; group="$3"
    echo "running $group benchmarks (benchtime=$benchtime, count=$count)..." >&2
    # Capture to a file rather than piping through tee: plain sh has no
    # pipefail, and a panicking benchmark must fail the script (CI
    # smokes this path).
    if [ "$perf" = 1 ]; then
        if ! perf stat -x, -e cycles,instructions,cache-references,cache-misses \
            -o "$perfraw.one" -- \
            go test -bench="$regex" -benchtime="$benchtime" \
            -benchmem -run='^$' -count="$count" "$pkg" >> "$raw" 2>&1; then
            cat "$raw" >&2
            echo "benchmarks failed" >&2
            exit 1
        fi
        sed "s/^/$group,/" "$perfraw.one" >> "$perfraw"
        rm -f "$perfraw.one"
    else
        if ! go test -bench="$regex" -benchtime="$benchtime" \
            -benchmem -run='^$' -count="$count" "$pkg" >> "$raw" 2>&1; then
            cat "$raw" >&2
            echo "benchmarks failed" >&2
            exit 1
        fi
    fi
}

run_group 'BenchmarkStrategies($|Parallel|Sharded)' . strategies
run_group 'BenchmarkIncrementalRepair' ./internal/hashtable/ incremental_repair
cat "$raw" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2; nsop = $3
    bytes = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    # With -count > 1 the same benchmark repeats; keep the last sample.
    if (!(name in seen)) order[++n] = name
    seen[name] = sprintf("{\"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        iters, nsop, bytes, allocs)
}
END {
    print "{"
    for (i = 1; i <= n; i++)
        printf "  \"%s\": %s,\n", order[i], seen[order[i]]
    # Hardware counters from `perf stat -x,` (CSV: value,unit,event,...
    # prefixed with the group name), one _perf_<group> object each.
    # Counters cover the whole `go test` run of the group — build,
    # harness and all benchmarks within it — so they are comparable
    # only across snapshots of the same group at the same benchtime.
    np = 0
    while ((getline line < perffile) > 0) {
        split(line, f, ",")
        group = f[1]; value = f[2]; event = f[4]
        if (value !~ /^[0-9]+$/) continue
        sub(/:u$/, "", event); gsub(/-/, "_", event)
        if (!(group in pseen)) porder[++np] = group
        pseen[group] = pseen[group] sprintf("\"%s\": %s, ", event, value)
        pv[group, event] = value + 0
    }
    for (i = 1; i <= np; i++) {
        g = porder[i]
        extra = ""
        if (pv[g, "instructions"] > 0 && pv[g, "cycles"] > 0)
            extra = extra sprintf("\"ipc\": %.3f, ", pv[g, "instructions"] / pv[g, "cycles"])
        if (pv[g, "cache_misses"] > 0 && pv[g, "cache_references"] > 0)
            extra = extra sprintf("\"cache_miss_rate\": %.4f, ", pv[g, "cache_misses"] / pv[g, "cache_references"])
        body = pseen[g] extra
        sub(/, $/, "", body)
        printf "  \"_perf_%s\": {%s},\n", g, body
    }
    printf "  \"_meta\": {\"date\": \"%s\", \"cpu\": \"%s\", \"cpus\": %s}\n", date, cpu, ncpu
    print "}"
}' ncpu="$(nproc 2>/dev/null || echo 1)" perffile="$perfraw" "$raw" > "$out"

echo "wrote $out" >&2
