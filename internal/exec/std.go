package exec

import (
	"m2mjoin/internal/buf"
	"m2mjoin/internal/plan"
)

// This file implements the STD pipeline (and its BVP/SJ variants):
// every join fully materializes the flat intermediate result before
// the next join runs, so each intermediate tuple probes every
// subsequent operator — including the redundant probes on ancestor
// attributes that the paper's cost model charges it for.
//
// The flat intermediate is held as one column of base-relation row
// indices per joined relation in the worker's ping-pong column sets
// (join-order layout, column 0 is the driver); each join reads one set
// and writes the other, so steady-state execution reuses the same
// backing arrays for every chunk.

// runSTDChunk executes the standard pipeline for one driver chunk:
// each join step's bitvector filters and table probe drain completely
// before the next relation's start.
func (w *worker) runSTDChunk(driverRows []int32) {
	r := w.r
	useBVP := r.filters != nil
	cur, spare := w.colsA, w.colsB
	cur[0] = append(cur[0][:0], driverRows...)
	width := 1
	if useBVP {
		w.applyFiltersSTD(cur, width, plan.Root)
	}
	for _, next := range r.opts.Order {
		w.joinSTD(cur, spare, width, next)
		cur, spare = spare, cur
		width++
		if useBVP {
			w.applyFiltersSTD(cur, width, next)
		}
		if len(cur[0]) == 0 {
			break
		}
	}
	w.colsA, w.colsB = cur, spare // keep grown buffers for the next chunk
	if len(cur[0]) == 0 || width != r.ds.Tree.Len() {
		return
	}
	tuple := w.rowsBuf[:width]
	for i := range cur[0] {
		for c := 0; c < width; c++ {
			tuple[c] = cur[c][i]
		}
		if w.emitTuple(tuple) {
			w.outputTuples++
		}
	}
}

// joinSTD probes every intermediate tuple into next's hash table and
// materializes the expanded result into the spare column set.
func (w *worker) joinSTD(cur, out [][]int32, width int, next plan.NodeID) {
	r := w.r
	parent := r.ds.Tree.Parent(next)
	keyCol := r.ds.Relation(parent).Column(r.ds.KeyColumn(next))
	parentRows := cur[r.layoutPos[parent]]
	table := r.tables[next]

	n := len(parentRows)
	keys := w.gatherKeys(keyCol, parentRows)
	table.ProbeBatchInto(keys, nil, &w.probe)
	res := &w.probe
	w.hashProbes += int64(res.Probed)
	w.tagHits += int64(res.TagHits)
	w.tagMisses += int64(res.TagMisses)
	w.perRel[next] += int64(res.Probed)

	total := len(res.Rows)
	for c := 0; c < width; c++ {
		col := out[c][:0]
		curCol := cur[c]
		for i := 0; i < n; i++ {
			v := curCol[i]
			for k := res.Offsets[i]; k < res.Offsets[i+1]; k++ {
				col = append(col, v)
			}
		}
		out[c] = col
	}
	out[width] = append(out[width][:0], res.Rows...)
	w.intermediateTuples += int64(total)
}

// applyFiltersSTD applies the bitvectors of at's children to the flat
// chunk, compacting pruned tuples away. Each surviving tuple is probed
// against each filter in ascending child order.
func (w *worker) applyFiltersSTD(cols [][]int32, width int, at plan.NodeID) {
	r := w.r
	rel := r.ds.Relation(at)
	atPos := r.layoutPos[at]
	for _, c := range r.children[at] {
		filter := r.filters[c]
		keyCol := rel.Column(r.ds.KeyColumn(c))
		atRows := cols[atPos]
		n := len(atRows)
		keys := w.gatherKeys(keyCol, atRows)
		w.keep = buf.Grow(w.keep, n)
		keep := w.keep
		w.filterProbes += int64(filter.ProbeContains(keys, nil, keep))
		kept := 0
		for _, k := range keep {
			if k {
				kept++
			}
		}
		if kept == n {
			continue
		}
		for ci := 0; ci < width; ci++ {
			col := cols[ci][:0]
			for i, k := range keep {
				if k {
					col = append(col, cols[ci][i])
				}
			}
			cols[ci] = col
		}
	}
}
