package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"time"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// The replay pass of a traced run times calls into each module's
// public functions on the run's own datasets, outside any window.

const (
	// replayReps repetitions are timed per replayed call; the median
	// is kept.
	replayReps = 3
	// replayWorkers is the worker count of replayed builds and runs,
	// the service's default on the two CPUs the benchmark is sized for.
	replayWorkers = 2
	// replayCommits small commits are replayed per dataset.
	replayCommits = 20
	// probeBatch is the probe batch size, the executor's default chunk.
	probeBatch = exec.DefaultChunkSize
)

// timeMedian runs fn replayReps times and returns the median wall time.
func timeMedian(fn func()) time.Duration {
	var ts []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		fn()
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts))
}

// httpOverhead sends warm queries to the round's service through a
// loopback HTTP server and returns each call's time outside the
// returned queue and exec times.
func (b *bench) httpOverhead(ctx context.Context) ([]float64, error) {
	srv := httptest.NewServer(service.NewHandler(b.s.svc))
	defer srv.Close()
	hr := service.NewHTTPRunner(srv.URL)
	var over []float64
	for i := 0; i < httpReplayQueries; i++ {
		t := i % len(b.f.templates)
		b.attempted++
		t0 := time.Now()
		res, err := hr.Query(ctx, b.f.templates[t])
		lat := time.Since(t0)
		if err != nil {
			b.failed++
			continue
		}
		if !b.f.check(t, res.Stats) {
			b.failed++
			b.mismatches++
			continue
		}
		over = append(over, ms(lat-res.Queued-res.Elapsed))
	}
	if len(over) == 0 {
		return nil, fmt.Errorf("http replay: every query failed")
	}
	return over, nil
}

// layerTotals accumulates the replay's measurements over datasets.
type layerTotals struct {
	coldMS                                   map[cost.Strategy]float64
	planMS                                   float64
	qerrors                                  []float64
	buildNS, buildRows, tableBytes           float64
	probeNS, probeKeys                       float64
	filterBuildNS, filterProbeNS, filterKeys float64
	falsePos, absentKeys                     float64
	commitUS, applyUS                        []float64
	partitionMS                              float64
	stragglers, scatterOverSolo              []float64
}

// replay runs the replay pass and sets the per-layer metrics it yields.
func (b *bench) replay() error {
	lt := layerTotals{coldMS: map[cost.Strategy]float64{}}
	for i, ds := range b.f.datasets {
		// Template 4i is dataset i's unselected, auto-planned query.
		want := b.f.expect[4*i]
		if err := b.replayDataset(&lt, ds, want, rand.New(rand.NewSource(b.seed+int64(i)))); err != nil {
			return fmt.Errorf("replay %s: %w", b.f.names[i], err)
		}
	}
	for _, s := range cost.AllStrategies {
		b.set("exec.cold_ms."+strings.ReplaceAll(s.String(), "+", "_"), lt.coldMS[s], "ms")
	}
	b.set("core.plan_ms", lt.planMS, "ms")
	b.set("opt.cost_qerror.p50", median(lt.qerrors), "ratio")
	b.set("opt.cost_qerror.max", maxOf(lt.qerrors), "ratio")
	b.set("hashtable.build_ns_per_row", ratio(lt.buildNS, lt.buildRows), "ns")
	b.set("hashtable.probe_ns_per_key", ratio(lt.probeNS, lt.probeKeys), "ns")
	b.set("hashtable.bytes_per_row", ratio(lt.tableBytes, lt.buildRows), "B")
	b.set("hashtable.apply_delta_us", median(lt.applyUS), "us")
	b.set("bitvector.build_ns_per_row", ratio(lt.filterBuildNS, lt.buildRows), "ns")
	b.set("bitvector.probe_ns_per_key", ratio(lt.filterProbeNS, lt.filterKeys), "ns")
	b.set("bitvector.false_positive_ratio", ratio(lt.falsePos, lt.absentKeys), "ratio")
	b.set("storage.commit_us", median(lt.commitUS), "us")
	b.set("shard.partition_ms", lt.partitionMS, "ms")
	b.set("shard.straggler_ratio", mean(lt.stragglers), "ratio")
	b.set("shard.scatter_over_solo", mean(lt.scatterOverSolo), "ratio")
	return nil
}

// replayDataset replays one dataset. Its cold and sharded runs are
// checked against want, the dataset's unselected answer.
func (b *bench) replayDataset(lt *layerTotals, ds *storage.Dataset, want answer, rng *rand.Rand) error {
	// core: a full plan search with a fresh statistics cache, then one
	// cold execution per strategy with no artifacts provided.
	var auto core.PlanChoice
	var err error
	lt.planMS += ms(timeMedian(func() {
		auto, err = core.ChoosePlan(core.PlanRequest{Dataset: ds, MeasureStats: true,
			StatsCache: workload.NewEdgeStatsCache(), FlatOutput: true})
	}))
	if err != nil {
		return err
	}
	stats := workload.NewEdgeStatsCache()
	driverRows := float64(ds.Relation(plan.Root).NumRows())
	for _, s := range cost.AllStrategies {
		choice, err := core.ChoosePlan(core.PlanRequest{Dataset: ds, MeasureStats: true,
			StatsCache: stats, FlatOutput: true, Strategies: []cost.Strategy{s}})
		if err != nil {
			return err
		}
		var st exec.Stats
		lt.coldMS[s] += ms(timeMedian(func() {
			st, err = core.Execute(ds, choice, core.ExecuteOptions{Parallelism: replayWorkers, FlatOutput: true})
		}))
		if err != nil {
			return err
		}
		b.checkReplay(st, want)
		predicted := choice.Predicted.Total * driverRows
		measured := st.WeightedCost(cost.DefaultWeights())
		lt.qerrors = append(lt.qerrors, max(ratio(predicted, measured), ratio(measured, predicted)))
	}

	// hashtable and bitvector: build every non-root relation, probe the
	// root's children with the driver's keys, and probe each filter with
	// keys no relation holds (generated keys are positive) to count
	// false positives.
	root := ds.Relation(plan.Root)
	tables := map[plan.NodeID]*hashtable.Table{}
	var res hashtable.ProbeResult
	for _, id := range ds.Tree.NonRoot() {
		rel, col, live := ds.Relation(id), ds.KeyColumn(id), ds.Live(id)
		var t *hashtable.Table
		lt.buildNS += float64(timeMedian(func() { t = hashtable.BuildParallel(rel, col, live, replayWorkers) }))
		var f *bitvector.Filter
		lt.filterBuildNS += float64(timeMedian(func() {
			f = bitvector.BuildFromColumnParallel(rel, col, live, 0, replayWorkers)
		}))
		lt.buildRows += float64(rel.NumRows())
		lt.tableBytes += float64(t.MemoryBytes())
		tables[id] = t
		absent := make([]int64, probeBatch)
		for i := range absent {
			absent[i] = -(1 + rng.Int63n(1<<40))
		}
		out := make([]bool, probeBatch)
		f.ProbeContains(absent, nil, out)
		for _, hit := range out {
			if hit {
				lt.falsePos++
			}
		}
		lt.absentKeys += float64(len(absent))
		if ds.Tree.Parent(id) != plan.Root {
			continue
		}
		keys := root.Column(col)
		lt.probeNS += float64(timeMedian(func() {
			for lo := 0; lo < len(keys); lo += probeBatch {
				t.ProbeBatchInto(keys[lo:min(lo+probeBatch, len(keys))], nil, &res)
			}
		}))
		lt.filterProbeNS += float64(timeMedian(func() {
			for lo := 0; lo < len(keys); lo += probeBatch {
				hi := min(lo+probeBatch, len(keys))
				f.ProbeContains(keys[lo:hi], nil, out[:hi-lo])
			}
		}))
		lt.probeKeys += float64(len(keys))
		lt.filterKeys += float64(len(keys))
	}

	// storage and hashtable maintenance: small append commits like the
	// writer's, each followed by the incremental repair of the touched
	// relation's table.
	cur := ds
	nonRoot := ds.Tree.NonRoot()
	for k := 0; k < replayCommits; k++ {
		id := nonRoot[rng.Intn(len(nonRoot))]
		rel := ds.Relation(id)
		d := cur.Begin()
		for a := 1 + rng.Intn(3); a > 0; a-- {
			vals := make([]int64, rel.NumCols())
			for j := range vals {
				vals[j] = -(1 + rng.Int63n(1<<40))
			}
			d.Append(ds.Tree.Name(id), vals...)
		}
		t0 := time.Now()
		v, err := d.Commit()
		lt.commitUS = append(lt.commitUS, us(time.Since(t0)))
		if err != nil {
			return err
		}
		for _, rd := range v.Deltas {
			nd := v.Dataset
			spec := hashtable.DeltaSpec{BaseRows: nd.BaseRows(rd.Rel), BaseLive: nd.BaseLive(rd.Rel),
				Live: nd.Live(rd.Rel), AppendedFrom: rd.AppendedFrom, Deleted: rd.Deleted, Compacted: rd.Compacted}
			t0 := time.Now()
			tables[rd.Rel] = tables[rd.Rel].ApplyDelta(nd.Relation(rd.Rel), nd.KeyColumn(rd.Rel), spec, replayWorkers, nil)
			lt.applyUS = append(lt.applyUS, us(time.Since(t0)))
		}
		cur = v.Dataset
	}

	// shard: a 2-way partition, each shard's run alone (the slowest over
	// the mean is the straggler ratio), and the scatter over both
	// against the same plan run unsharded.
	var shards []shard.Shard
	lt.partitionMS += ms(timeMedian(func() { shards, err = shard.Partition(ds, 2) }))
	if err != nil {
		return err
	}
	var per []float64
	for _, sh := range shards {
		per = append(per, float64(timeMedian(func() {
			_, err = core.Execute(sh.DS, auto, core.ExecuteOptions{Parallelism: 1, FlatOutput: true,
				DriverRowMap: sh.RowMap})
		})))
		if err != nil {
			return err
		}
	}
	lt.stragglers = append(lt.stragglers, ratio(maxOf(per), mean(per)))
	opts := exec.Options{Strategy: auto.Strategy, Order: auto.Order, SemiJoins: auto.SemiJoins,
		FlatOutput: true, Parallelism: replayWorkers}
	var solo, sharded exec.Stats
	soloT := timeMedian(func() { solo, err = exec.Run(ds, opts) })
	if err != nil {
		return err
	}
	scatterT := timeMedian(func() { sharded, err = exec.RunSharded(shards, opts) })
	if err != nil {
		return err
	}
	b.checkReplay(solo, want)
	b.checkReplay(sharded, want)
	lt.scatterOverSolo = append(lt.scatterOverSolo, ratio(float64(scatterT), float64(soloT)))
	return nil
}

// checkReplay counts a replayed run as an operation and checks its
// answer against the oracle.
func (b *bench) checkReplay(st exec.Stats, want answer) {
	b.attempted++
	if !want.matches(st) {
		b.failed++
		b.mismatches++
	}
}
