// Command perfbench is the serving benchmark of m2mjoin. It generates
// the three service.StandardMix datasets from --seed, checks every
// answer against the exec.ReferenceOpts oracle, and drives one of
// four workloads for --seconds:
//
//	warm_mix        1 closed-loop client in process, 256 MiB cache
//	cache_overflow  the same with a 4 MiB cache
//	write_mix       the same with 256 MiB plus an open-loop writer
//	sharded_http    1 client over loopback HTTP to a 2-shard service
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs again with spans recorded around each call and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	// cacheBytes is the artifact cache budget (0: the service default,
	// 256 MiB).
	cacheBytes int64
	shards     int
	http       bool
	// writerRate is the open-loop writer's batches per second during
	// the window; 0 means no writer, and the commit metrics then come
	// from burstBatches closed-loop writes sent after the window, which
	// time a commit against the cache the window left behind.
	writerRate float64
}

// cache_overflow's budget is about a quarter of the ≈15 MiB the three
// datasets' artifacts take, so most queries rebuild their phase-1
// artifacts.
var workloads = []workloadSpec{
	{name: "warm_mix"},
	{name: "cache_overflow", cacheBytes: 4 << 20},
	{name: "write_mix", writerRate: 200},
	{name: "sharded_http", shards: 2, http: true},
}

// clients is the number of closed-loop readers in every workload. With
// one, each query gets the service's whole worker budget of two, and
// reader plus writer goroutines, or reader plus HTTP connection, never
// exceed the two CPUs the benchmark is sized for. With two readers in
// process both CPUs ran queries, and qps and the median latency spread
// more from run to run (perfbench/README.md gives the figures).
const clients = 1

const (
	defaultRows = 20000
	// A run is rounds rounds, each a timed set-up of a fresh service
	// followed by its share of the window; setup_s is the median set-up.
	// The speed of one set-up varies with where its tables and columns
	// land in memory, by more than the speed of one set-up varies over
	// time, so a run pools several.
	rounds = 7
	// minQueries is the fewest completed queries a run's windows end
	// with, so that at least ten samples lie beyond p99.
	minQueries = 1000
	// burstBatches closed-loop writes follow each round's window in the
	// workloads without a writer.
	burstBatches = 3000
	// httpReplayQueries warm queries go over loopback HTTP in each round
	// of a traced in-process workload, for http.overhead_ms.p50.
	httpReplayQueries = 50
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "warm_mix | cache_overflow | write_mix | sharded_http")
	seed := fs.Int64("seed", 1, "input seed: generated rows, template draws and writer batches")
	seconds := fs.Float64("seconds", 10, "measured window length")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	rows := fs.Int("rows", defaultRows, "driver rows per dataset")
	spans := fs.String("spans", "", "span output file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	case *seconds <= 0 || *rows <= 0 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "perfbench: --seconds and --rows must be positive and --trace 0 or 1")
		return 2
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", w.name, *seed)
	}
	b := &bench{w: *w, seed: *seed, rows: *rows, dur: time.Duration(*seconds * float64(time.Second)),
		out: stdout, metrics: map[string]metric{}}
	var err error
	if *trace == 1 {
		err = b.traced(*spans)
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return b.report(stderr)
}

// bench is one run of one workload.
type bench struct {
	w    workloadSpec
	seed int64
	rows int
	dur  time.Duration
	out  io.Writer
	// f and s are the current round's datasets and service.
	f     *fixture
	s     *serving
	decks []*deck
	// dataSeeds are the generator seeds of the datasets, one per shape.
	dataSeeds []int64
	setup     []setupTimes
	metrics   map[string]metric
	// Every operation attempted, and those that failed or answered
	// wrongly.
	attempted, failed, mismatches int64
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// prepare picks and generates the datasets and computes the oracle.
func (b *bench) prepare() error {
	t0 := time.Now()
	var err error
	if b.dataSeeds, err = pickDataSeeds(b.seed, b.rows); err != nil {
		return err
	}
	f, err := generate(b.dataSeeds, b.rows)
	if err != nil {
		return err
	}
	t1 := time.Now()
	f.computeOracle()
	for c := 0; c < clients; c++ {
		b.decks = append(b.decks, newDeck(len(f.templates), b.seed*1000003+int64(c)))
	}
	fmt.Fprintf(b.out, "%s seed=%d rows=%d datasets=%d templates=%d generate=%v oracle=%v\n",
		b.w.name, b.seed, b.rows, len(f.datasets), len(f.templates),
		t1.Sub(t0).Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))
	b.f = f
	return nil
}

// round runs round r: a timed set-up of a fresh service, then measure,
// then the service is closed. Rounds after the first regenerate the
// same datasets, so that they too land elsewhere in memory.
func (b *bench) round(ctx context.Context, r int, measure func() error) error {
	if r > 0 {
		f, err := generate(b.dataSeeds, b.rows)
		if err != nil {
			return err
		}
		f.expect = b.f.expect
		b.f = f
	}
	runtime.GC()
	s, t, mm, err := startServing(ctx, b.f, b.w)
	if err != nil {
		return err
	}
	defer s.close()
	b.s = s
	b.attempted += int64(len(b.f.templates))
	b.failed += int64(mm)
	b.mismatches += int64(mm)
	b.setup = append(b.setup, t)
	return measure()
}

func (b *bench) callSpans() (query, mutate string) {
	if b.w.http {
		return spanHTTPQuery, spanHTTPMutate
	}
	return spanQuery, spanMutate
}

func (b *bench) readLoad(dur time.Duration) readLoad {
	q, _ := b.callSpans()
	return readLoad{f: b.f, tgt: b.s.target, decks: b.decks,
		dur: dur, minQueries: minQueries/rounds + 1, callSpan: q}
}

func (b *bench) writer(rate float64) writer {
	_, m := b.callSpans()
	return writer{tgt: b.s.target, targets: b.f.mutateTargets, seed: b.seed, rate: rate, callSpan: m}
}

// window runs one measured window: the readers, with the workload's
// writer alongside them when it has one. recs holds one recorder per
// client plus one for the writer, or is nil.
func (b *bench) window(ctx context.Context, dur time.Duration, recs []*recorder) (readStats, writeStats) {
	var readRecs []*recorder
	var wrec *recorder
	if recs != nil {
		readRecs, wrec = recs[:clients], recs[clients]
	}
	var ws writeStats
	stop := make(chan struct{})
	done := make(chan struct{})
	if b.w.writerRate > 0 {
		go func() {
			defer close(done)
			ws = b.writer(b.w.writerRate).run(ctx, time.Now(), 0, stop, wrec)
		}()
	} else {
		close(done)
	}
	rs := b.readLoad(dur).run(ctx, readRecs)
	close(stop)
	<-done
	b.count(rs, ws)
	return rs, ws
}

// count adds a window's operations to the run's tally.
func (b *bench) count(rs readStats, ws writeStats) {
	b.attempted += rs.attempted + ws.attempted
	b.failed += rs.errors + rs.mismatches + ws.errors
	b.mismatches += rs.mismatches
}

// writes returns the writes the commit metrics come from: the window's
// writer's, or else burstBatches closed-loop writes sent now.
func (b *bench) writes(ctx context.Context, ws writeStats, rec *recorder) writeStats {
	if b.w.writerRate > 0 {
		return ws
	}
	ws = b.writer(0).run(ctx, time.Now(), burstBatches, nil, rec)
	b.count(readStats{}, ws)
	return ws
}

// endToEnd is the untraced run: every end-to-end metric.
func (b *bench) endToEnd() error {
	ctx := context.Background()
	if err := b.prepare(); err != nil {
		return err
	}
	var rs readStats
	var ws writeStats
	var alloc uint64
	var heapMB []float64
	for r := 0; r < rounds; r++ {
		err := b.round(ctx, r, func() error {
			var before, after, live runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rr, rw := b.window(ctx, b.dur/rounds, nil)
			runtime.ReadMemStats(&after)
			alloc += after.TotalAlloc - before.TotalAlloc
			runtime.GC()
			runtime.ReadMemStats(&live)
			heapMB = append(heapMB, float64(live.HeapAlloc)/1e6)
			rs.merge(&rr)
			ws.merge(b.writes(ctx, rw, nil))
			return nil
		})
		if err != nil {
			return err
		}
	}

	var setups []float64
	for _, t := range b.setup {
		setups = append(setups, t.total.Seconds())
	}
	n := float64(rs.queries())
	b.set("qps", ratio(n, rs.duration.Seconds()), "1/s")
	b.set("p50_ms", median(rs.latMS), "ms")
	b.set("p99_ms", percentile(rs.latMS, 0.99), "ms")
	b.set("setup_s", median(setups), "s")
	b.set("heap_mb", median(heapMB), "MB")
	b.set("alloc_kb_per_query", ratio(float64(alloc), n)/1e3, "KB")
	// The commit latencies are printed but are not metrics of the result
	// line, which must carry every metric on every workload: only
	// write_mix writes during its window, and on the others they time a
	// burst of microsecond commits whose median and tail varied from run
	// to run by more than the largest bound a metric may have.
	fmt.Fprintf(b.out, "  %-36s %14.6g ms (not in the result line)\n", "commit_p50_ms", median(ws.commitMS))
	fmt.Fprintf(b.out, "  %-36s %14.6g ms (not in the result line)\n", "commit_p99_ms", percentile(ws.commitMS, 0.99))
	fmt.Fprintf(b.out, "samples: queries=%d writes=%d setups=%d window=%v\n",
		rs.queries(), len(ws.commitMS), len(setups), rs.duration.Round(time.Millisecond))
	return nil
}

// traced is the traced run. Each round has an untraced half window, for
// the trace overhead, then a traced half window and its writes; the
// in-process workloads then send warm queries over loopback HTTP. A
// replay of each layer's public functions follows the rounds. It sets
// every per-layer metric.
func (b *bench) traced(spanPath string) error {
	ctx := context.Background()
	if err := b.prepare(); err != nil {
		return err
	}
	epoch := time.Now()
	recs := make([]*recorder, clients+1)
	for i := range recs {
		recs[i] = newRecorder(epoch, int64(i))
	}
	var plain, rs readStats
	var ws writeStats
	var hits, lookups, evictions float64
	var cacheMB, httpOver []float64
	half := b.dur / rounds / 2
	for r := 0; r < rounds; r++ {
		err := b.round(ctx, r, func() error {
			p, _ := b.window(ctx, half, nil)
			plain.merge(&p)
			before := b.s.svc.Stats()
			rr, rw := b.window(ctx, half, recs)
			after := b.s.svc.Stats()
			rs.merge(&rr)
			ws.merge(b.writes(ctx, rw, recs[clients]))
			h := float64(after.Cache.Hits - before.Cache.Hits)
			hits += h
			lookups += h + float64(after.Cache.Misses-before.Cache.Misses)
			evictions += float64(after.Cache.Evictions - before.Cache.Evictions)
			cacheMB = append(cacheMB, float64(after.Cache.Bytes)/(1<<20))
			if b.w.http {
				// Over HTTP a read's time outside queue and exec is
				// the HTTP overhead.
				httpOver = append(httpOver, rr.selfMS...)
				return nil
			}
			over, err := b.httpOverhead(ctx)
			httpOver = append(httpOver, over...)
			return err
		})
		if err != nil {
			return err
		}
	}

	n := float64(rs.queries())
	var regs []float64
	for _, t := range b.setup {
		regs = append(regs, ms(t.register))
	}
	b.set("service.queue_ms.p99", percentile(rs.queuedMS, 0.99), "ms")
	b.set("service.exec_ms.p50", median(rs.execMS), "ms")
	b.set("service.self_ms.p50", median(rs.selfMS), "ms")
	b.set("service.cache_hit_ratio", ratio(hits, lookups), "ratio")
	b.set("service.evictions_per_query", ratio(evictions, n), "count")
	b.set("service.cache_mb", mean(cacheMB), "MiB")
	b.set("service.mutate_us.p50", median(ws.mutateUS), "us")
	b.set("service.mutate_us.p99", percentile(ws.mutateUS, 0.99), "us")
	b.set("service.repairs_per_commit", ratio(float64(ws.repairs), float64(len(ws.mutateUS))), "count")
	b.set("service.register_ms", median(regs), "ms")
	b.set("http.overhead_ms.p50", median(httpOver), "ms")
	b.set("exec.hash_probes_per_query", ratio(float64(rs.hashProbes), n), "count")
	b.set("exec.filter_probes_per_query", ratio(float64(rs.filterProbes), n), "count")
	b.set("exec.semijoin_probes_per_query", ratio(float64(rs.semiJoinProbes), n), "count")
	b.set("exec.intermediate_tuples_per_query", ratio(float64(rs.intermediate), n), "count")
	b.set("exec.expanded_tuples_per_query", ratio(float64(rs.expanded), n), "count")
	b.set("exec.tag_miss_ratio", ratio(float64(rs.tagMisses), float64(rs.tagHits+rs.tagMisses)), "ratio")
	b.set("load.writer_late_ms.p99", percentile(ws.lateMS, 0.99), "ms")
	b.set("load.trace_overhead_ratio", ratio(median(rs.latMS), median(plain.latMS)), "ratio")
	rows := whereTable(recs)
	for _, r := range rows {
		b.set("where."+r.layer+".self_ms", r.selfMS, "ms")
		b.set("where."+r.layer+".share", r.share, "ratio")
	}
	if err := b.replay(); err != nil {
		return err
	}
	printWhereTable(b.out, b.w.name, rows)
	if err := writeSpans(spanPath, recs); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(b.out, "samples: traced queries=%d untraced queries=%d writes=%d spans=%s\n",
		rs.queries(), plain.queries(), len(ws.mutateUS), spanPath)
	return nil
}

// report prints every metric with its unit, then the result line. A
// metric that is not a finite number fails the run.
func (b *bench) report(stderr io.Writer) int {
	names := make([]string, 0, len(b.metrics))
	for k := range b.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := b.metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
		fmt.Fprintf(b.out, "  %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(b.out, "  %-36s %14.6g share (oracle mismatches=%d failed=%d attempted=%d)\n", "error_share",
		ratio(float64(b.failed), float64(b.attempted)), b.mismatches, b.failed, b.attempted)
	line, err := json.Marshal(result{Correct: b.mismatches == 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	return 0
}
