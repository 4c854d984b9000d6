package exec

import (
	"sync"
	"sync/atomic"

	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// This file implements the semi-join full-reduction pass of the SJ
// strategies (Sections 2.2, 4.5): a single bottom-up sweep in which
// every parent is semi-joined with its already-reduced children,
// leaves' parents first, ending with the driver. The hash tables built
// for the semi-joins are the same tables the phase-2 joins probe, so
// the pass adds no extra build cost — the paper's "more efficient
// variation" of the Yannakakis algorithm.
//
// Liveness is a word-packed storage.Bitmap. The pass owns exactly one
// scratch bitmap, reused for every parent (a parent's mask is only
// needed while its own reductions and hash-table build run), so mask
// memory no longer scales with the relation count; the root's mask is
// the last one produced and is handed off as the driver mask without
// copying. Both the reduction probes (word-aligned chunks of the key
// column) and the hash-table builds (two-pass morsel scheme) fan out
// over Options.Parallelism workers with bit-identical results.

// semiJoinPass reduces all relations bottom-up and leaves behind:
// r.tables (hash tables over the reduced relations) and r.driverLive
// (the fully reduced driver mask).
//
// With an artifact provider the pass is served one relation at a time.
// A leaf is reduced by nothing, so its table is the relation's plain
// table, shared with the other strategies (relationTable). Every other
// relation's reduction is a function of its subtree alone — the
// relations below it, their selections and their semi-join child
// orders — and is looked up by that subtree (Artifacts.Reduced). A hit
// replays the counters the reduction spent; a completed miss is
// offered back unless the run was cancelled, since a cancelled
// reduction may have skipped chunks.
func (r *run) semiJoinPass() {
	t := r.ds.Tree
	r.tables = make([]*hashtable.Table, t.Len())
	arts := r.opts.Artifacts
	// orders[p] fingerprints the semi-join child order of p's subtree.
	orders := make([]uint64, t.Len())

	scratch := storage.NewEmptyBitmap(0)
	for _, p := range t.BottomUp() {
		if r.cancelled() {
			return
		}
		// One span per relation covers its sibling reductions and the
		// (reduced) hash-table build together — the unit of phase-1
		// work for SJ strategies.
		sp := r.opts.Trace.Start("semijoin", r.phase1Span)
		r.opts.Trace.Annotate(sp, "rel", int64(p))
		children := r.semiJoinOrder(p)
		if p != plan.Root && len(children) == 0 {
			r.tables[p] = r.relationTable(p, r.opts.Parallelism, sp)
			r.opts.Trace.End(sp)
			continue
		}
		order := storage.FingerprintUint64(storage.FingerprintSeed, uint64(len(children)))
		for _, c := range children {
			order = storage.FingerprintUint64(order, uint64(c))
			order = storage.FingerprintUint64(order, orders[c])
		}
		orders[p] = order
		var red *Reduction
		if arts != nil {
			red = arts.Reduced(p, order)
		}
		if red != nil {
			r.cacheHits.Add(1)
			r.opts.Trace.Annotate(sp, "cached", 1)
		} else {
			if red = r.reduce(p, children, scratch); red == nil {
				return // abandoned by cancellation or failure
			}
			if arts != nil && !r.cancelled() {
				arts.PutReduced(p, order, red)
				r.cacheMisses.Add(1)
			}
		}
		r.addSemiJoinStats(red.Probes, p != plan.Root)
		if p != plan.Root {
			r.tables[p] = red.Table
		} else {
			r.driverLive = red.Live
		}
		r.opts.Trace.End(sp)
	}
}

// reduce semi-joins relation p with its already-reduced children and
// returns the result, or nil if the run was cancelled or failed on the
// way. The mask is built in scratch, the pass's one reusable bitmap: a
// parent's mask is only needed while its reductions and hash-table
// build run, and the driver — visited last — adopts it as its reduced
// mask.
func (r *run) reduce(p plan.NodeID, children []plan.NodeID, scratch *storage.Bitmap) *Reduction {
	rel := r.ds.Relation(p)
	// Start from the pushed-down selection mask, if any.
	mask := maskAt(r.baseMasks, p)
	var st hashtable.ProbeStats
	if len(children) > 0 {
		if mask != nil {
			scratch.CopyFrom(mask)
		} else {
			scratch.Reset(rel.NumRows())
		}
		mask = scratch
		for _, c := range children {
			if r.cancelled() {
				return nil
			}
			keyCol := rel.Column(r.ds.KeyColumn(c))
			st.Add(r.semiJoinReduce(r.tables[c], keyCol, mask))
		}
	}
	if r.cancelled() {
		return nil
	}
	if p == plan.Root {
		return &Reduction{Live: mask, Probes: st}
	}
	// Build the (reduced) hash table used both by later semi-joins from
	// p's parent and by the phase-2 join. The build reads the mask
	// before scratch is reused for the next parent.
	tbl := hashtable.BuildParallelStop(rel, r.ds.KeyColumn(p), mask, r.opts.Parallelism, r.stopFn())
	if tbl == nil {
		return nil
	}
	return &Reduction{Table: tbl, Probes: st}
}

// minParallelReduceRows gates the chunked parallel reduction: tiny
// masks are reduced on the calling goroutine.
const minParallelReduceRows = 4 * 1024

// semiJoinReduce clears mask bits for rows whose key has no match in
// table, probing only set rows (skip-by-word iteration). Large masks
// split into word-aligned chunks across the worker pool: each worker
// owns disjoint mask words, so the reduction is race-free and the
// resulting mask — and the probe count, which counts exactly the set
// bits — is identical at any worker count.
func (r *run) semiJoinReduce(table *hashtable.Table, keyCol storage.Column, mask *storage.Bitmap) hashtable.ProbeStats {
	n := mask.Len()
	p := r.opts.Parallelism
	if p <= 1 || n < minParallelReduceRows {
		if err := faultinject.Fire(faultinject.SiteReduceChunk); err != nil {
			r.fail(err)
			return hashtable.ProbeStats{}
		}
		return table.ReduceLive(keyCol, mask, 0, n)
	}
	nWords := (n + 63) / 64
	if p > nWords {
		p = nWords
	}
	spanWords := (nWords + p - 1) / p
	span := spanWords * 64
	var probed, tagHits, tagMisses atomic.Int64
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += span {
		hi := lo + span
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r.guard("sj-reduce", func() {
				// Poll between reduction chunks: a chunk skipped after
				// cancellation leaves its mask words unreduced, which is
				// fine — the run aborts before the mask is consumed, and
				// semiJoinPass never publishes it.
				if r.cancelled() {
					return
				}
				if err := faultinject.Fire(faultinject.SiteReduceChunk); err != nil {
					r.fail(err)
					return
				}
				st := table.ReduceLive(keyCol, mask, lo, hi)
				probed.Add(int64(st.Probed))
				tagHits.Add(int64(st.TagHits))
				tagMisses.Add(int64(st.TagMisses))
			})
		}(lo, hi)
	}
	wg.Wait()
	return hashtable.ProbeStats{
		Probed:    int(probed.Load()),
		TagHits:   int(tagHits.Load()),
		TagMisses: int(tagMisses.Load()),
	}
}

// addSemiJoinStats folds one reduction's probe stats into the run
// totals: semi-join probes, plus their tag-filter split (the semi-join
// probe is a hash-table probe, so it participates in TagHits/TagMisses
// exactly like the phase-2 joins). buildSide reductions — every parent
// except the root — additionally accumulate into the Build* split that
// the scatter-gather merge de-duplicates across shards.
func (r *run) addSemiJoinStats(st hashtable.ProbeStats, buildSide bool) {
	r.stats.SemiJoinProbes += int64(st.Probed)
	r.stats.TagHits += int64(st.TagHits)
	r.stats.TagMisses += int64(st.TagMisses)
	if buildSide {
		r.stats.BuildSemiJoinProbes += int64(st.Probed)
		r.stats.BuildTagHits += int64(st.TagHits)
		r.stats.BuildTagMisses += int64(st.TagMisses)
	}
}

// semiJoinOrder returns the order in which p's children are probed in
// phase 1: the caller-provided order when given (SJOptimal sorts by
// increasing adjusted match probability), ascending NodeID otherwise.
func (r *run) semiJoinOrder(p plan.NodeID) []plan.NodeID {
	if r.opts.SemiJoins != nil {
		if o, ok := r.opts.SemiJoins[p]; ok {
			return o
		}
	}
	return append([]plan.NodeID(nil), r.ds.Tree.Children(p)...)
}
