// Block bodies of the two-stage batch probes. ProbeBatchInto drives
// probeStage1Block then probeStage2Block over each probeBlock-lane
// block: stage 1 (hash, directory load, tag filter, first-key compare
// — a load that doubles as the software prefetch of the run's cache
// line) issues the block's memory traffic, stage 2 verifies the
// surviving runs and gathers matches. ReduceLive runs the same two
// stages per 64-row mask word (reduceLiveWord).
package hashtable

import (
	"math/bits"

	"m2mjoin/internal/buf"
	"m2mjoin/internal/storage"
)

// Add accumulates o into s (the exported form of the internal
// accumulator, for callers that sum the stats of several probes).
func (s *ProbeStats) Add(o ProbeStats) { s.add(o) }

// grow sizes the per-key scratch (counts and offsets) for an n-key
// probe. Both go through buf.Grow, which over-allocates 25% headroom —
// the same policy as the factor-chunk scratch — so alternating
// large/small probe batches (the executor's short final chunk) settle
// into a steady state instead of reallocating on every size flip. Rows
// grows by append from a length-0 reslice, which also preserves
// capacity.
func (res *ProbeResult) grow(n int) {
	res.Counts = buf.Grow(res.Counts, n)
	res.Offsets = buf.Grow(res.Offsets, n+1)
}

// probeStage1Block is stage 1 of the batch probe over lanes [lo, hi):
// hash each selected key, fetch its directory word, filter on the tag
// (definitive misses record runs[i-lo] = 0), and for survivors record
// the packed run bounds plus the first-key verdict — loading the run's
// first key doubles as the software prefetch of the line stage 2
// scans. runs is block-local (probeBlock lanes, indexed i-lo): one
// block of run state lives only until stage 2 consumes it.
// Returns the selected-lane count (0 reported for nil sel; the caller
// substitutes hi-lo totals) and the tag-miss count.
func (t *Table) probeStage1Block(keys []int64, sel []bool, runs []uint64, lo, hi int) (probed, tagMiss int) {
	dir, tkeys := t.dir, t.keys
	if sel == nil {
		for i := lo; i < hi; i++ {
			key := keys[i]
			h := Hash64(key)
			b := h >> t.shift
			w := dir[b]
			if w&t.tag(h) == 0 {
				tagMiss++
				runs[i-lo] = 0
				continue
			}
			start := w >> offShift
			r := start<<33 | (dir[b+1]>>offShift)<<1
			if tkeys[start] == key {
				r |= 1
			}
			runs[i-lo] = r
		}
		return 0, tagMiss
	}
	for i := lo; i < hi; i++ {
		if !sel[i] {
			runs[i-lo] = 0
			continue
		}
		probed++
		key := keys[i]
		h := Hash64(key)
		b := h >> t.shift
		w := dir[b]
		if w&t.tag(h) == 0 {
			tagMiss++
			runs[i-lo] = 0
			continue
		}
		start := w >> offShift
		r := start<<33 | (dir[b+1]>>offShift)<<1
		if tkeys[start] == key {
			r |= 1
		}
		runs[i-lo] = r
	}
	return probed, tagMiss
}

// probeStage2Block is stage 2 over lanes [lo, hi): verify the runs
// stage 1 recorded (block-local, indexed i-lo), gather match rows into
// out, and write counts and offsets. Blocks must be verified in
// ascending order — offsets chain through the shared output cursor.
func (t *Table) probeStage2Block(keys []int64, runs []uint64, out []int32, counts, offsets []int32, lo, hi int) []int32 {
	tkeys, trows := t.keys, t.rows
	for i := lo; i < hi; i++ {
		run := runs[i-lo]
		before := int32(len(out))
		if run != 0 {
			key := keys[i]
			start := run >> 33
			if run&1 != 0 {
				out = append(out, trows[start])
			}
			for e, end := start+1, run>>1&(1<<32-1); e < end; e++ {
				if tkeys[e] == key {
					out = append(out, trows[e])
				}
			}
		}
		counts[i] = int32(len(out)) - before
		offsets[i+1] = int32(len(out))
	}
	return out
}

// reduceLiveWord is one 64-row pipeline block of ReduceLive: stage 1
// tag-filters word wi's set rows (clearing definitive misses and
// prefetching surviving runs), stage 2 verifies the survivors.
func (t *Table) reduceLiveWord(keyCol storage.Column, words []uint64, wi int) ProbeStats {
	var st ProbeStats
	w := words[wi]
	if w == 0 {
		return st
	}
	st.Probed = bits.OnesCount64(w)
	base := wi << 6
	var runs [64]uint64
	for m := w; m != 0; m &= m - 1 {
		tz := bits.TrailingZeros64(m)
		key := keyCol[base+tz]
		h := Hash64(key)
		b := h >> t.shift
		d := t.dir[b]
		if d&t.tag(h) == 0 {
			st.TagMisses++
			w &^= 1 << uint(tz)
			continue
		}
		st.TagHits++
		start := d >> offShift
		r := start<<33 | (t.dir[b+1]>>offShift)<<1
		if t.keys[start] == key {
			r |= 1
		}
		runs[tz] = r
	}
	for m := w; m != 0; m &= m - 1 {
		tz := bits.TrailingZeros64(m)
		run := runs[tz]
		found := run&1 != 0
		if !found {
			key := keyCol[base+tz]
			for e, end := run>>33+1, run>>1&(1<<32-1); !found && e < end; e++ {
				found = t.keys[e] == key
			}
		}
		if !found {
			w &^= 1 << uint(tz)
		}
	}
	words[wi] = w
	return st
}
