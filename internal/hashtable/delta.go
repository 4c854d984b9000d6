package hashtable

import (
	"fmt"
	"math/bits"
	"time"

	"m2mjoin/internal/storage"
	"m2mjoin/internal/telemetry"
)

// This file is the incremental-maintenance side of the tagged table:
// versioned builds and O(delta) repair, mirroring the storage layer's
// snapshot model (storage/version.go).
//
// A versioned table covers a relation in two parts. The packed part is
// the ordinary bucket-sorted layout over the base region — rows
// [0, BaseRows) masked by the live-at-last-compaction bitmap — exactly
// what buildColumn produces. On top of it, deletes flip per-entry
// tombstone bits (the entry stays in its run, dead), and appended rows
// live in a small append region: a second packed sub-table over the
// column tail [BaseRows, NumRows), its row indices already global.
// Probes against a table with delta state take a scalar two-directory
// path — packed run first, then append run, both skipping tombstones —
// which preserves ascending-row match order because every append row
// sits above every base row; tables without delta state keep the
// original pipelined fast paths untouched.
//
// The shape of a versioned table is a pure function of
// (column, BaseRows, BaseLive, Live): ApplyDelta repairs a cached table
// into exactly the state BuildVersioned would build cold, bit for bit,
// which is what lets the serving layer repair cached artifacts in
// place on small deltas and still answer queries identically to a
// from-scratch build (differential-tested in delta_test.go).
// Compaction is decided by the storage layer at commit time and arrives
// here as DeltaSpec.Compacted — the table never compacts on its own, so
// every replica and every repair history agrees on when the layout
// folds back to fully packed.

// DeltaSpec carries one dataset commit's effect on one relation into a
// table repair — the table-facing view of a storage.RelationDelta plus
// the successor snapshot's maintenance state.
type DeltaSpec struct {
	// BaseRows / BaseLive / Live are the relation's maintenance state
	// AFTER the commit (storage Dataset accessors of the new snapshot).
	BaseRows int
	BaseLive *storage.Bitmap
	Live     *storage.Bitmap
	// AppendedFrom is the relation's row count before the commit.
	AppendedFrom int
	// Deleted lists the global rows the commit killed.
	Deleted []int
	// Compacted forces a full rebuild: the commit advanced the base
	// marker, so the packed layout changes wholesale.
	Compacted bool
}

// hasDelta reports whether the table carries tombstones or an append
// region; the probe entry points branch on it once, so plain tables pay
// nothing.
func (t *Table) hasDelta() bool { return t.deadCount > 0 || t.app != nil }

// BaseRows returns the base marker the packed part was built over (its
// total row coverage for plain builds).
func (t *Table) BaseRows() int { return t.baseRows }

// Tombstones returns the number of dead entries (packed and append
// region together).
func (t *Table) Tombstones() int { return t.deadCount + t.appDeadCount }

// PackedLen returns the number of entries in the packed part alone.
func (t *Table) PackedLen() int { return len(t.keys) }

// AppendedKeys returns the keys of every append-region entry, dead or
// not, or nil when there is no append region. Filter derivation folds
// these in: filter bits are OR-monotone under append and never cleared
// by deletes, so the bit set must not depend on current liveness.
func (t *Table) AppendedKeys() []int64 {
	if t.app == nil {
		return nil
	}
	return t.app.keys
}

// deadBit reports whether packed entry e is tombstoned.
func (t *Table) deadBit(e uint64) bool {
	return t.dead != nil && t.dead[e>>6]&(1<<(e&63)) != 0
}

// appDeadBit reports whether append-region entry e is tombstoned.
func (t *Table) appDeadBit(e uint64) bool {
	return t.appDead != nil && t.appDead[e>>6]&(1<<(e&63)) != 0
}

// cloneBits copies a tombstone bitset sized for n entries (allocating
// zeroed words when src is nil) — the copy-on-write step of ApplyDelta.
func cloneBits(src []uint64, n int) []uint64 {
	dst := make([]uint64, (n+63)/64)
	copy(dst, src)
	return dst
}

// BuildVersioned constructs a table over rel's key column in the
// versioned shape: a packed part over the base region [0, baseRows)
// masked by baseLive, tombstones for base rows dead in live, and an
// append sub-table over [baseRows, NumRows). With a fully packed,
// fully live relation it degenerates to exactly BuildParallelStop's
// table. stop is the cooperative cancel hook; a true poll returns nil.
func BuildVersioned(rel *storage.Relation, keyColumn string, baseRows int,
	baseLive, live *storage.Bitmap, workers int, stop func() bool) *Table {
	// Same telemetry contract as BuildParallelStop: one atomic load
	// when no sink is armed.
	if fn := telemetry.BuildHook(); fn != nil {
		start := time.Now()
		defer func() { fn(telemetry.BuildKindBuild, rel.NumRows(), time.Since(start)) }()
	}
	col := rel.Column(keyColumn)
	n := len(col)
	var mask *storage.Bitmap
	if baseLive != nil {
		// Extend the base-region mask to the full column with a zero
		// tail, so the packed build skips the append region.
		mask = storage.NewEmptyBitmap(n)
		copy(mask.Words(), baseLive.Words())
	} else if baseRows < n {
		mask = storage.NewEmptyBitmap(n)
		w := mask.Words()
		for wi := 0; wi < baseRows>>6; wi++ {
			w[wi] = ^uint64(0)
		}
		if baseRows&63 != 0 {
			w[baseRows>>6] = 1<<(uint(baseRows)&63) - 1
		}
	}
	t := buildColumn(col, mask, workers, stop)
	if t == nil {
		return nil
	}
	t.baseRows, t.totalRows = baseRows, n

	// Tombstones: rows live at compaction but dead now.
	if live != nil {
		for wi := 0; wi < (baseRows+63)>>6; wi++ {
			w := ^live.Words()[wi]
			if mask != nil {
				w &= mask.Words()[wi]
			} else if wi == baseRows>>6 && baseRows&63 != 0 {
				w &= 1<<(uint(baseRows)&63) - 1
			}
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				row := base + bits.TrailingZeros64(w)
				t.killPacked(col[row], int32(row))
			}
		}
	}

	if baseRows < n {
		if !t.buildAppendRegion(col, live, stop) {
			return nil
		}
	}
	return t
}

// buildAppendRegion (re)builds the append sub-table over the column
// tail [t.baseRows, t.totalRows), remapping its rows to global indices
// and tombstoning the ones dead in live. The append region is small by
// construction (compaction bounds it at a quarter of the base), so the
// build is sequential.
func (t *Table) buildAppendRegion(col storage.Column, live *storage.Bitmap, stop func() bool) bool {
	sub := buildColumn(col[t.baseRows:t.totalRows], nil, 1, stop)
	if sub == nil {
		return false
	}
	for i := range sub.rows {
		sub.rows[i] += int32(t.baseRows)
	}
	t.app, t.appDead, t.appDeadCount = sub, nil, 0
	if live != nil {
		for row := t.baseRows; row < t.totalRows; row++ {
			if !live.Get(row) {
				t.killApp(col[row], int32(row))
			}
		}
	}
	return true
}

// killPacked tombstones the packed entry holding global row.
func (t *Table) killPacked(key int64, row int32) {
	start, end, ok := t.lookup(key)
	if ok {
		for e := start; e < end; e++ {
			if t.rows[e] == row {
				if t.dead == nil {
					t.dead = make([]uint64, (len(t.keys)+63)/64)
				}
				if t.dead[e>>6]&(1<<(e&63)) == 0 {
					t.dead[e>>6] |= 1 << (e & 63)
					t.deadCount++
				}
				return
			}
		}
	}
	panic(fmt.Sprintf("hashtable: tombstone for absent row %d", row))
}

// killApp tombstones the append-region entry holding global row.
func (t *Table) killApp(key int64, row int32) {
	start, end, ok := t.app.lookup(key)
	if ok {
		for e := start; e < end; e++ {
			if t.app.rows[e] == row {
				if t.appDead == nil {
					t.appDead = make([]uint64, (len(t.app.keys)+63)/64)
				}
				if t.appDead[e>>6]&(1<<(e&63)) == 0 {
					t.appDead[e>>6] |= 1 << (e & 63)
					t.appDeadCount++
				}
				return
			}
		}
	}
	panic(fmt.Sprintf("hashtable: tombstone for absent append row %d", row))
}

// ApplyDelta returns a new table reflecting one commit, sharing the
// packed arrays with the receiver (copy-on-write: the receiver keeps
// answering for its own snapshot). Deletes flip cloned tombstone bits;
// appends rebuild the append sub-table over the grown column tail;
// a compaction — or a delta that does not chain from this table's
// state — falls back to a full BuildVersioned. The result is bit-
// identical to BuildVersioned on the successor snapshot.
func (t *Table) ApplyDelta(rel *storage.Relation, keyColumn string, d DeltaSpec,
	workers int, stop func() bool) *Table {
	// Repair timing flows to the telemetry sink when armed. The
	// compaction fallback below goes through BuildVersioned, which
	// reports its own "build" — such a repair appears as both, each
	// measuring its own operation.
	if fn := telemetry.BuildHook(); fn != nil {
		start := time.Now()
		defer func() { fn(telemetry.BuildKindRepair, rel.NumRows(), time.Since(start)) }()
	}
	col := rel.Column(keyColumn)
	if d.Compacted || t.totalRows != d.AppendedFrom {
		return BuildVersioned(rel, keyColumn, d.BaseRows, d.BaseLive, d.Live, workers, stop)
	}
	nt := &Table{
		keys: t.keys, rows: t.rows, dir: t.dir, shift: t.shift,
		baseRows: t.baseRows, totalRows: len(col),
		dead: t.dead, deadCount: t.deadCount,
		app: t.app, appDead: t.appDead, appDeadCount: t.appDeadCount,
	}
	var appDels []int
	clonedDead := false
	for _, row := range d.Deleted {
		if row < t.baseRows {
			if !clonedDead {
				nt.dead = cloneBits(t.dead, len(t.keys))
				clonedDead = true
			}
			nt.killPacked(col[row], int32(row))
		} else {
			appDels = append(appDels, row)
		}
	}
	switch {
	case nt.totalRows > t.totalRows:
		// The append region grew: rebuild it over the full tail. Old
		// tombstones are re-derived from d.Live, which already reflects
		// this commit's deletes too.
		if !nt.buildAppendRegion(col, d.Live, stop) {
			return nil
		}
	case len(appDels) > 0:
		nt.appDead = cloneBits(t.appDead, len(t.app.keys))
		nt.appDeadCount = t.appDeadCount
		for _, row := range appDels {
			nt.killApp(col[row], int32(row))
		}
	}
	return nt
}

// containsDelta is the scalar two-directory membership probe. tagHit
// reports whether either directory's tag bit was present — the
// versioned analogue of the stage-1 tag filter, keeping the
// TagHits+TagMisses == probes invariant.
func (t *Table) containsDelta(key int64) (found, tagHit bool) {
	if start, end, ok := t.lookup(key); ok {
		tagHit = true
		for e := start; e < end; e++ {
			if t.keys[e] == key && !t.deadBit(e) {
				return true, true
			}
		}
	}
	if t.app != nil {
		if start, end, ok := t.app.lookup(key); ok {
			tagHit = true
			for e := start; e < end; e++ {
				if t.app.keys[e] == key && !t.appDeadBit(e) {
					return true, true
				}
			}
		}
	}
	return false, tagHit
}

// appendDelta appends key's live matches (packed run, then append run —
// ascending global row order, since append rows sit above the base) to
// dst.
func (t *Table) appendDelta(dst []int32, key int64) (_ []int32, tagHit bool) {
	if start, end, ok := t.lookup(key); ok {
		tagHit = true
		for e := start; e < end; e++ {
			if t.keys[e] == key && !t.deadBit(e) {
				dst = append(dst, t.rows[e])
			}
		}
	}
	if t.app != nil {
		if start, end, ok := t.app.lookup(key); ok {
			tagHit = true
			for e := start; e < end; e++ {
				if t.app.keys[e] == key && !t.appDeadBit(e) {
					dst = append(dst, t.app.rows[e])
				}
			}
		}
	}
	return dst, tagHit
}

// countDelta counts key's live matches across both directories.
func (t *Table) countDelta(key int64) (n int32, tagHit bool) {
	if start, end, ok := t.lookup(key); ok {
		tagHit = true
		for e := start; e < end; e++ {
			if t.keys[e] == key && !t.deadBit(e) {
				n++
			}
		}
	}
	if t.app != nil {
		if start, end, ok := t.app.lookup(key); ok {
			tagHit = true
			for e := start; e < end; e++ {
				if t.app.keys[e] == key && !t.appDeadBit(e) {
					n++
				}
			}
		}
	}
	return n, tagHit
}

// probeBatchDeltaInto is ProbeBatchInto's scalar path for tables with
// delta state.
func (t *Table) probeBatchDeltaInto(keys []int64, sel []bool, res *ProbeResult) {
	res.grow(len(keys))
	counts, offsets := res.Counts, res.Offsets
	offsets[0] = 0
	out := res.Rows[:0]
	probed, tagHits := 0, 0
	for i, key := range keys {
		before := int32(len(out))
		if sel == nil || sel[i] {
			probed++
			var hit bool
			if out, hit = t.appendDelta(out, key); hit {
				tagHits++
			}
		}
		counts[i] = int32(len(out)) - before
		offsets[i+1] = int32(len(out))
	}
	res.Rows = out
	res.Probed = probed
	res.TagHits = tagHits
	res.TagMisses = probed - tagHits
}

// probeContainsDelta / reduceLiveDelta are the delta-state fallbacks
// of the pipelined probes; same contracts, scalar loops.
func (t *Table) probeContainsDelta(keys []int64, sel []bool, out []bool) ProbeStats {
	var st ProbeStats
	for i, key := range keys {
		if sel != nil && !sel[i] {
			out[i] = false
			continue
		}
		st.Probed++
		found, hit := t.containsDelta(key)
		if hit {
			st.TagHits++
		} else {
			st.TagMisses++
		}
		out[i] = found
	}
	return st
}

func (t *Table) reduceLiveDelta(keyCol storage.Column, live *storage.Bitmap, loRow, hiRow int) ProbeStats {
	var st ProbeStats
	words := live.Words()
	for wi := loRow >> 6; wi < (hiRow+63)>>6; wi++ {
		w := words[wi]
		if w == 0 {
			continue
		}
		base := wi << 6
		for m := w; m != 0; m &= m - 1 {
			tz := bits.TrailingZeros64(m)
			st.Probed++
			found, hit := t.containsDelta(keyCol[base+tz])
			if hit {
				st.TagHits++
			} else {
				st.TagMisses++
			}
			if !found {
				w &^= 1 << uint(tz)
			}
		}
		words[wi] = w
	}
	return st
}

// Checksum folds the table's entire observable state — packed arrays,
// markers, tombstones and append region — into one fingerprint, the
// bit-identity witness of the differential tests.
func (t *Table) Checksum() uint64 {
	h := uint64(storage.FingerprintSeed)
	h = storage.FingerprintUint64(h, uint64(t.shift))
	h = storage.FingerprintUint64(h, uint64(t.baseRows))
	h = storage.FingerprintUint64(h, uint64(t.totalRows))
	h = storage.FingerprintUint64(h, uint64(len(t.keys)))
	for i, k := range t.keys {
		h = storage.FingerprintUint64(h, uint64(k))
		h = storage.FingerprintUint64(h, uint64(t.rows[i]))
	}
	for _, w := range t.dir {
		h = storage.FingerprintUint64(h, w)
	}
	h = storage.FingerprintUint64(h, uint64(t.deadCount))
	for e := 0; e < len(t.keys); e++ {
		if t.deadBit(uint64(e)) {
			h = storage.FingerprintUint64(h, uint64(e))
		}
	}
	if t.app != nil {
		h = storage.FingerprintUint64(h, t.app.Checksum())
		h = storage.FingerprintUint64(h, uint64(t.appDeadCount))
		for e := 0; e < len(t.app.keys); e++ {
			if t.appDeadBit(uint64(e)) {
				h = storage.FingerprintUint64(h, uint64(e))
			}
		}
	}
	return h
}
