package hashtable

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// deltaTestDataset builds a single-child dataset whose child relation
// "R2" (keyed on "k") is the subject of the mutation stream.
func deltaTestDataset(rows int, rng *rand.Rand) *storage.Dataset {
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R2")
	r1 := storage.NewRelation("R1", "id")
	r1.AppendRow(0)
	r2 := storage.NewRelation("R2", "id", "k")
	for i := 0; i < rows; i++ {
		r2.AppendRow(int64(i), rng.Int63n(int64(rows/2+1)))
	}
	ds := storage.NewDataset(tr)
	ds.SetRelation(plan.Root, r1, "")
	ds.SetRelation(plan.NodeID(1), r2, "k")
	return ds
}

// randomMutationBatch builds a commit of nOps random appends/deletes
// against R2, tracking already-dead rows so the batch stays valid.
func randomMutationBatch(cur *storage.Dataset, rng *rand.Rand, nOps int) (storage.Version, error) {
	id := plan.NodeID(1)
	rel := cur.Relation(id)
	live := cur.Live(id)
	var candidates []int
	for r := 0; r < rel.NumRows(); r++ {
		if live == nil || live.Get(r) {
			candidates = append(candidates, r)
		}
	}
	d := cur.Begin()
	for o := 0; o < nOps; o++ {
		if rng.Intn(10) < 6 || len(candidates) == 0 {
			d.Append("R2", rng.Int63n(1<<20), rng.Int63n(int64(rel.NumRows()/2+1)))
		} else {
			k := rng.Intn(len(candidates))
			d.Delete("R2", candidates[k])
			candidates = append(candidates[:k], candidates[k+1:]...)
		}
	}
	return d.Commit()
}

// buildCold builds the versioned table for the dataset's current
// maintenance state from scratch.
func buildCold(ds *storage.Dataset, workers int) *Table {
	id := plan.NodeID(1)
	return BuildVersioned(ds.Relation(id), "k",
		ds.BaseRows(id), ds.BaseLive(id), ds.Live(id), workers, nil)
}

// TestApplyDeltaMatchesBuildVersioned is the incremental-repair
// differential test: across random append/delete/compact sequences the
// ApplyDelta chain must stay bit-identical (by Checksum) to a cold
// BuildVersioned of every version, at several worker counts.
func TestApplyDeltaMatchesBuildVersioned(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*101 + 5)))
		cur := deltaTestDataset(60+rng.Intn(200), rng)
		repaired := buildCold(cur, 1)
		if repaired.Checksum() != buildCold(cur, 4).Checksum() {
			t.Fatalf("trial %d: worker count changed the v0 build", trial)
		}
		for step := 0; step < 12; step++ {
			v, err := randomMutationBatch(cur, rng, 1+rng.Intn(8))
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			cur = v.Dataset
			id := plan.NodeID(1)
			d := v.Deltas[0]
			repaired = repaired.ApplyDelta(cur.Relation(id), "k", DeltaSpec{
				BaseRows:     cur.BaseRows(id),
				BaseLive:     cur.BaseLive(id),
				Live:         cur.Live(id),
				AppendedFrom: d.AppendedFrom,
				Deleted:      d.Deleted,
				Compacted:    d.Compacted,
			}, 2, nil)
			for _, workers := range []int{1, 4} {
				cold := buildCold(cur, workers)
				if repaired.Checksum() != cold.Checksum() {
					t.Fatalf("trial %d step %d (compacted=%v, workers=%d): repaired table diverged from cold build",
						trial, step, d.Compacted, workers)
				}
			}
		}
	}
}

// TestDeltaProbesMatchOracle: the two-directory probe paths must agree
// with a naive map over the live rows — membership, match lists and
// counts, plus the TagHits+TagMisses == Probed invariant.
func TestDeltaProbesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cur := deltaTestDataset(150, rng)
	for step := 0; step < 6; step++ {
		v, err := randomMutationBatch(cur, rng, 5+rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		cur = v.Dataset
	}
	id := plan.NodeID(1)
	tbl := buildCold(cur, 1)
	if tbl.app == nil && tbl.deadCount == 0 {
		t.Fatalf("mutation stream produced no delta state to test")
	}
	rel, live := cur.Relation(id), cur.Live(id)
	col := rel.Column("k")
	oracle := make(map[int64][]int32)
	for r := 0; r < rel.NumRows(); r++ {
		if live == nil || live.Get(r) {
			oracle[col[r]] = append(oracle[col[r]], int32(r))
		}
	}
	probes := make([]int64, 0, 400)
	for k := int64(-3); k < 200; k++ {
		probes = append(probes, k)
	}
	var res ProbeResult
	tbl.ProbeBatchInto(probes, nil, &res)
	if res.TagHits+res.TagMisses != res.Probed {
		t.Fatalf("tag invariant broken: %d + %d != %d", res.TagHits, res.TagMisses, res.Probed)
	}
	for i, k := range probes {
		want := oracle[k]
		got := res.Rows[res.Offsets[i]:res.Offsets[i+1]]
		if len(got) != len(want) {
			t.Fatalf("key %d: %d matches, want %d", k, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("key %d: match %d = row %d, want %d (ascending order)", k, j, got[j], want[j])
			}
		}
		found, _ := tbl.containsDelta(k)
		if found != (len(want) > 0) {
			t.Fatalf("key %d: contains = %v, oracle %v", k, found, len(want) > 0)
		}
		n, _ := tbl.countDelta(k)
		if int(n) != len(want) {
			t.Fatalf("key %d: count = %d, want %d", k, n, len(want))
		}
	}

	// A selection mask skips lanes: unselected keys report no matches
	// and are not counted as probes; selected ones keep their lists.
	sel := make([]bool, len(probes))
	selected := 0
	for i := range sel {
		sel[i] = rng.Intn(3) > 0
		if sel[i] {
			selected++
		}
	}
	tbl.ProbeBatchInto(probes, sel, &res)
	if res.Probed != selected || res.TagHits+res.TagMisses != selected {
		t.Fatalf("masked probe: probed %d (tags %d+%d), want %d", res.Probed, res.TagHits, res.TagMisses, selected)
	}
	for i, k := range probes {
		want := int32(0)
		if sel[i] {
			want = int32(len(oracle[k]))
		}
		if res.Counts[i] != want || res.Offsets[i+1]-res.Offsets[i] != want {
			t.Fatalf("masked key %d: count %d, want %d", k, res.Counts[i], want)
		}
	}
}

// BenchmarkIncrementalRepair compares repairing a cached table through
// ApplyDelta against rebuilding it cold with BuildVersioned after one
// small commit — the asymmetry that makes commit-time cache repair
// worth doing.
func BenchmarkIncrementalRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	base := deltaTestDataset(200000, rng)
	v, err := base.Begin().
		Append("R2", 1, 7).Append("R2", 2, 8).Append("R2", 3, 9).
		Delete("R2", 50).Delete("R2", 9000).
		Commit()
	if err != nil {
		b.Fatal(err)
	}
	cur := v.Dataset
	id := plan.NodeID(1)
	d := v.Deltas[0]
	spec := DeltaSpec{
		BaseRows:     cur.BaseRows(id),
		BaseLive:     cur.BaseLive(id),
		Live:         cur.Live(id),
		AppendedFrom: d.AppendedFrom,
		Deleted:      d.Deleted,
		Compacted:    d.Compacted,
	}
	prev := buildCold(base, 1)

	b.Run("ApplyDelta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if prev.ApplyDelta(cur.Relation(id), "k", spec, 1, nil) == nil {
				b.Fatal("repair failed")
			}
		}
	})
	b.Run("BuildVersioned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buildCold(cur, 1) == nil {
				b.Fatal("build failed")
			}
		}
	})
}
