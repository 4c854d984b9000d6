// Package bitvector implements the hash bitvector filters used for
// sideways information passing (Section 2.2 and 4.4): a join operator
// registers the hashes of its build-side keys in a bit array; probe-
// side tuples whose key hash is absent are guaranteed to have no match
// and can be pruned before reaching the hash join. False positives are
// possible (two keys sharing a bit) and harmless: the tuple is pruned
// later by the join itself.
//
// The filter shares both the key hash (hashtable.Hash64) and the tag
// derivation of the tagged hash table: a key's filter word is
// hashtable.Bucket(h, shift) — the top hash bits, exactly like a
// directory slot — and its bit within the word is hashtable.Tag(h,
// shift, 6), the same "bits immediately below the index" rule that
// picks the table's 16-bit slot tags (there at width 4). A filter
// false positive is therefore the same event as a tag false positive —
// a collision in the shared upper hash bits — so BVP pruning errors
// behave like hash collisions, as the paper's cost model assumes.
package bitvector

import (
	"math/bits"
	"sync"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/storage"
)

// tagWidth is the filter's tag width: 6 bits select the bit position
// within a 64-bit filter word.
const tagWidth = 6

// Filter is a fixed-size hash bitvector over a set of int64 keys.
type Filter struct {
	bits []uint64
	// shift addresses the word directory: a key's word is
	// hashtable.Bucket(h, shift), its bit hashtable.Tag(h, shift, 6).
	shift uint
	n     int // number of keys inserted (not deduplicated)
}

// BitsPerKeyDefault controls the default filter density. At 8 bits per
// key the single-hash false-positive rate is about 1/8 in the worst
// case of all-distinct keys; the paper's epsilon is similarly a small
// constant estimated by micro-benchmarking.
const BitsPerKeyDefault = 8

// New creates a filter sized for n keys at the given bits-per-key
// density (0 selects BitsPerKeyDefault).
func New(n, bitsPerKey int) *Filter {
	if bitsPerKey <= 0 {
		bitsPerKey = BitsPerKeyDefault
	}
	bitCount := 64
	for bitCount < n*bitsPerKey {
		bitCount <<= 1
	}
	words := bitCount / 64
	return &Filter{
		bits:  make([]uint64, words),
		shift: uint(64 - bits.TrailingZeros(uint(words))),
	}
}

// BuildFromColumn creates a filter containing every key of rel's
// column whose live bit is set (nil live inserts all rows). With a
// sparse packed mask only set rows are visited.
func BuildFromColumn(rel *storage.Relation, column string, live *storage.Bitmap, bitsPerKey int) *Filter {
	return BuildFromColumnParallel(rel, column, live, bitsPerKey, 1)
}

// minParallelFilterRows gates the parallel filter build.
const minParallelFilterRows = 4 * 1024

// BuildFromColumnParallel is BuildFromColumn fanned out over the given
// number of workers: each worker hashes a word-aligned span of rows
// into a private filter of identical geometry, and the partial bit
// arrays are OR-merged. OR is commutative and the filter is insertion-
// order independent, so the result is bit-identical to the sequential
// build at any worker count.
func BuildFromColumnParallel(rel *storage.Relation, column string, live *storage.Bitmap, bitsPerKey, workers int) *Filter {
	col := rel.Column(column)
	f := New(len(col), bitsPerKey)
	if len(col) < minParallelFilterRows || workers <= 1 {
		f.addRange(col, live, 0, len(col))
		return f
	}
	// Word-aligned spans so each worker reads whole mask words. A
	// panicking span worker is re-thrown on the calling goroutine
	// after the pool drains (the executor's recover boundary converts
	// it into a failed query rather than a dead process).
	spanWords := ((len(col)+63)/64 + workers - 1) / workers
	span := spanWords * 64
	parts := make([]*Filter, 0, workers)
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	for lo := 0; lo < len(col); lo += span {
		hi := lo + span
		if hi > len(col) {
			hi = len(col)
		}
		p := New(len(col), bitsPerKey)
		parts = append(parts, p)
		wg.Add(1)
		go func(p *Filter, lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = v
					}
					panicMu.Unlock()
				}
			}()
			p.addRange(col, live, lo, hi)
		}(p, lo, hi)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	for _, p := range parts {
		for i, w := range p.bits {
			f.bits[i] |= w
		}
		f.n += p.n
	}
	return f
}

// FromTable derives a filter from a tagged hash table's directory
// without touching the relation or hashing a single key. At geometry
// 8 bits per directory slot (8-16 bits per key at the table's load
// factor <= 1; half that for very large tables at the relaxed load
// <= 2), a key's filter bit index — its top hash bits — equals
// bucket<<3 | tagIndex>>1, both of which the table already computed;
// Table.FilterWords performs the expansion in one branchless pass.
// The result is bit-identical to inserting every retained key into a
// filter of the same geometry, built in O(buckets) with no hashing —
// phase 1 of the BVP strategies gets its bitvectors for free from the
// tables it builds anyway.
//
// For a versioned table the geometry stays pinned to the packed part's
// directory and the append-region keys are folded in with ordinary
// inserts. Every append key is added whether or not it is still live,
// and tombstoned packed entries keep their tag bits: filter bits are
// OR-monotone under append and never cleared by deletes, so a filter
// repaired incrementally (Clone + AddKeys on each commit) is
// bit-identical to this cold derivation at every version, and the
// geometry only changes when compaction rebuilds the table. A false
// positive from a dead entry's surviving bit is caught by the exact
// table probe, like any tag collision.
func FromTable(t *hashtable.Table) *Filter {
	f := &Filter{
		bits:  t.FilterWords(),
		shift: t.Shift() + 3,
		n:     t.PackedLen(),
	}
	f.AddKeys(t.AppendedKeys())
	return f
}

// Clone returns an independent copy of f — the copy-on-write step of
// incremental filter repair, so in-flight queries keep probing the
// filter of the snapshot they started on.
func (f *Filter) Clone() *Filter {
	bits := make([]uint64, len(f.bits))
	copy(bits, f.bits)
	return &Filter{bits: bits, shift: f.shift, n: f.n}
}

// AddKeys registers a batch of keys (the appended rows of one commit);
// the filter is OR-monotone, so repair never removes bits.
func (f *Filter) AddKeys(keys []int64) {
	for _, key := range keys {
		f.Add(key)
	}
}

// addRange inserts the live keys of col[lo:hi). lo must be word-
// aligned; hi must be word-aligned or len(col).
func (f *Filter) addRange(col storage.Column, live *storage.Bitmap, lo, hi int) {
	if live == nil {
		for _, key := range col[lo:hi] {
			f.Add(key)
		}
		return
	}
	words := live.Words()
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		w := words[wi]
		base := wi << 6
		for w != 0 {
			f.Add(col[base+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
}

// Add registers a key.
func (f *Filter) Add(key int64) {
	h := hashtable.Hash64(key)
	f.bits[hashtable.Bucket(h, f.shift)] |= hashtable.Tag(h, f.shift, tagWidth)
	f.n++
}

// MayContain reports whether key might be present. A false result is
// definitive: the key was never added.
func (f *Filter) MayContain(key int64) bool {
	h := hashtable.Hash64(key)
	return f.bits[hashtable.Bucket(h, f.shift)]&hashtable.Tag(h, f.shift, tagWidth) != 0
}

// ProbeContains is the batch filter probe: for every key whose sel
// entry is set (nil sel probes all), out[i] reports MayContain(keys[i]);
// unselected lanes get out[i] = false. It returns the number of keys
// probed. len(out) must equal len(keys). sel and out may share backing
// storage (in-place mask reduction): sel[i] is read before out[i] is
// written. Hashing, the word load and the tag test run in one tight
// pass over the chunk — unlike the hash table there is no dependent
// second load to pipeline, so the filter probe is a single independent
// load per key that the memory system already overlaps.
func (f *Filter) ProbeContains(keys []int64, sel []bool, out []bool) int {
	probed := 0
	for i, key := range keys {
		if sel != nil && !sel[i] {
			out[i] = false
			continue
		}
		probed++
		h := hashtable.Hash64(key)
		out[i] = f.bits[hashtable.Bucket(h, f.shift)]&hashtable.Tag(h, f.shift, tagWidth) != 0
	}
	return probed
}

// MemoryBytes returns the heap footprint of the filter's bit array —
// the quantity the serving layer's artifact cache charges against its
// byte budget. The array is allocated at exactly this size.
func (f *Filter) MemoryBytes() int64 { return int64(len(f.bits)) * 8 }

// FillRatio returns the fraction of set bits, which approximates the
// false-positive probability for single-hash filters.
func (f *Filter) FillRatio() float64 {
	set := 0
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(len(f.bits)*64)
}
