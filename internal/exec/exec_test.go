package exec

import (
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// smallDataset generates a small random dataset over a random tree so
// the brute-force oracle stays tractable.
func smallDataset(seed int64, maxRel, driverRows int) *storage.Dataset {
	rng := rand.New(rand.NewSource(seed))
	tr := plan.RandomTree(2+rng.Intn(maxRel-1), rng,
		plan.UniformStats(rng, 0.2, 0.9, 1, 4))
	return workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: seed})
}

// TestAllStrategiesMatchReference is the central correctness test:
// every strategy, on random datasets and random valid join orders,
// must produce exactly the brute-force output count and checksum.
func TestAllStrategiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		ds := smallDataset(int64(trial*31+7), 6, 40+rng.Intn(60))
		wantCount, wantSum := Reference(ds)
		orders := ds.Tree.AllOrders()
		order := orders[rng.Intn(len(orders))]
		for _, s := range cost.AllStrategies {
			for _, chunkSize := range []int{7, 1024} {
				stats, err := Run(ds, Options{
					Strategy:   s,
					Order:      order,
					FlatOutput: true,
					ChunkSize:  chunkSize,
				})
				if err != nil {
					t.Fatalf("trial %d strategy %v: %v", trial, s, err)
				}
				if stats.OutputTuples != wantCount {
					t.Fatalf("trial %d strategy %v chunk %d order %v: count %d, want %d",
						trial, s, chunkSize, order, stats.OutputTuples, wantCount)
				}
				if wantCount > 0 && stats.Checksum != wantSum {
					t.Fatalf("trial %d strategy %v chunk %d: checksum mismatch", trial, s, chunkSize)
				}
			}
		}
	}

	// Skewed input: Zipf fanouts give some keys long match runs and
	// dangling keys give the probes an empty tail, so run verification
	// and expansion both see non-uniform match lists; factorized output
	// exercises the COM counting path over the same runs.
	t.Run("skewed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(92))
		tr := plan.Star(4, plan.UniformStats(rng, 0.4, 0.95, 1, 5))
		fanouts := make(map[plan.NodeID]workload.FanoutDist)
		for _, id := range tr.NonRoot() {
			fanouts[id] = workload.NewZipf(1.1, 40)
		}
		ds := workload.Generate(tr, workload.Config{
			DriverRows: 4000, Seed: 23,
			Fanouts:          fanouts,
			DanglingFraction: 0.3,
		})
		wantCount, wantSum := Reference(ds)
		if wantCount == 0 {
			t.Fatal("degenerate input, no output")
		}
		order := plan.Order(tr.NonRoot())
		for _, s := range cost.AllStrategies {
			for _, flat := range []bool{true, false} {
				stats, err := Run(ds, Options{Strategy: s, Order: order, FlatOutput: flat, ChunkSize: 512})
				if err != nil {
					t.Fatalf("%v flat=%v: %v", s, flat, err)
				}
				if stats.OutputTuples != wantCount {
					t.Fatalf("%v flat=%v: count %d, want %d", s, flat, stats.OutputTuples, wantCount)
				}
				if flat && stats.Checksum != wantSum {
					t.Fatalf("%v flat=%v: checksum mismatch", s, flat)
				}
			}
		}
	})
}

// TestAllOrdersSameOutput: the output must be identical for every
// valid join order (checks order-independence of the result and of the
// checksum canonicalization).
func TestAllOrdersSameOutput(t *testing.T) {
	ds := smallDataset(123, 5, 60)
	wantCount, wantSum := Reference(ds)
	for _, order := range ds.Tree.AllOrders() {
		for _, s := range []cost.Strategy{cost.STD, cost.COM, cost.BVPCOM, cost.SJCOM} {
			stats, err := Run(ds, Options{Strategy: s, Order: order, FlatOutput: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", s, order, err)
			}
			if stats.OutputTuples != wantCount || (wantCount > 0 && stats.Checksum != wantSum) {
				t.Fatalf("strategy %v order %v: output diverged (count %d want %d)",
					s, order, stats.OutputTuples, wantCount)
			}
		}
	}
}

// TestFactorizedOutputCountsMatch: with FlatOutput off, COM variants
// must still report the correct output cardinality via counting,
// without expanding.
func TestFactorizedOutputCountsMatch(t *testing.T) {
	ds := smallDataset(77, 6, 80)
	wantCount, _ := Reference(ds)
	orders := ds.Tree.AllOrders()
	for _, s := range []cost.Strategy{cost.COM, cost.BVPCOM, cost.SJCOM} {
		stats, err := Run(ds, Options{Strategy: s, Order: orders[0], FlatOutput: false})
		if err != nil {
			t.Fatal(err)
		}
		if stats.OutputTuples != wantCount {
			t.Errorf("%v factorized: count %d, want %d", s, stats.OutputTuples, wantCount)
		}
		if stats.ExpandedTuples != 0 {
			t.Errorf("%v factorized: expanded %d tuples, want 0", s, stats.ExpandedTuples)
		}
	}
}

// TestCOMAvoidsRedundantProbes: on a query joining two relations on
// the same driver attribute-style pattern (star), COM must perform
// strictly fewer hash probes than STD when fanouts exceed 1.
func TestCOMAvoidsRedundantProbes(t *testing.T) {
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 5}, "R2")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 5}, "R3")
	ds := workload.Generate(tr, workload.Config{DriverRows: 500, Seed: 1})
	order := plan.Order{1, 2}

	std, err := Run(ds, Options{Strategy: cost.STD, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	com, err := Run(ds, Options{Strategy: cost.COM, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if com.OutputTuples != std.OutputTuples || com.Checksum != std.Checksum {
		t.Fatalf("outputs diverged")
	}
	// STD probes R3 once per intermediate (driver x R2) tuple; COM once
	// per surviving driver tuple.
	if com.HashProbes >= std.HashProbes {
		t.Errorf("COM probes %d, STD probes %d: expected COM < STD", com.HashProbes, std.HashProbes)
	}
	// The probe counts into R3: STD ~ N*m*fo, COM ~ N*m.
	stdR3 := std.PerRelationProbes[2]
	comR3 := com.PerRelationProbes[2]
	if float64(stdR3) < 3.5*float64(comR3) {
		t.Errorf("expected ~5x probe reduction into R3: STD %d vs COM %d", stdR3, comR3)
	}
}

// TestProbeCountsMatchCostModel: measured probes must track the model
// predictions within sampling noise for STD and COM on a generated
// dataset (the essence of Fig. 14/15).
func TestProbeCountsMatchCostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 10; trial++ {
		tr := plan.RandomTree(3+rng.Intn(4), rng,
			plan.UniformStats(rng, 0.3, 0.9, 1, 4))
		n := 4000
		ds := workload.Generate(tr, workload.Config{DriverRows: n, Seed: int64(trial)})
		measured := workload.MeasuredTree(ds)
		model := cost.New(measured, cost.DefaultWeights())
		orders := tr.AllOrders()
		order := orders[rng.Intn(len(orders))]

		for _, s := range []cost.Strategy{cost.STD, cost.COM} {
			stats, err := Run(ds, Options{Strategy: s, Order: order, FlatOutput: false})
			if err != nil {
				t.Fatal(err)
			}
			want := model.Cost(s, order, false).HashProbes * float64(n)
			got := float64(stats.HashProbes)
			if relErr := math.Abs(got-want) / math.Max(want, 1); relErr > 0.15 {
				t.Errorf("trial %d %v order %v: probes %v, model %v (err %.1f%%)",
					trial, s, order, got, want, relErr*100)
			}
		}
	}
}

// TestSJReducesDriver: with low match probabilities, the semi-join
// pass must shrink the driver and SJ output must equal reference.
func TestSJReducesDriver(t *testing.T) {
	tr := plan.NewTree("R1")
	c := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.3, Fo: 2}, "R2")
	tr.AddChild(c, plan.EdgeStats{M: 0.3, Fo: 2}, "R3")
	ds := workload.Generate(tr, workload.Config{DriverRows: 1000, Seed: 5})
	wantCount, wantSum := Reference(ds)

	stats, err := Run(ds, Options{Strategy: cost.SJSTD, Order: plan.Order{1, 2}, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutputTuples != wantCount || (wantCount > 0 && stats.Checksum != wantSum) {
		t.Fatalf("SJ output mismatch: %d vs %d", stats.OutputTuples, wantCount)
	}
	if stats.SemiJoinProbes == 0 {
		t.Errorf("expected semi-join probes")
	}
	// After full reduction every driver tuple contributes: hash probes
	// into R2 should be ~ N * m2 * (1-(1-m3)^fo2) << N.
	if stats.PerRelationProbes[1] > 400 {
		t.Errorf("driver not reduced: %d probes into R2", stats.PerRelationProbes[1])
	}
}

// TestBVPPrunesEarly: bitvector pruning must cut hash probes versus
// plain STD when selectivities are low, with identical output.
func TestBVPPrunesEarly(t *testing.T) {
	tr := plan.NewTree("R1")
	a := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 3}, "R2")
	tr.AddChild(a, plan.EdgeStats{M: 0.2, Fo: 2}, "R3")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.2, Fo: 2}, "R4")
	ds := workload.Generate(tr, workload.Config{DriverRows: 2000, Seed: 9})
	order := plan.Order{1, 2, 3}

	std, err := Run(ds, Options{Strategy: cost.STD, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	bvp, err := Run(ds, Options{Strategy: cost.BVPSTD, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if std.OutputTuples != bvp.OutputTuples || std.Checksum != bvp.Checksum {
		t.Fatalf("BVP changed the output")
	}
	if bvp.HashProbes >= std.HashProbes {
		t.Errorf("BVP hash probes %d >= STD %d", bvp.HashProbes, std.HashProbes)
	}
	if bvp.FilterProbes == 0 {
		t.Errorf("BVP should count filter probes")
	}
}

// TestEmptyResult: a query with an impossible join produces zero
// tuples under every strategy without errors.
func TestEmptyResult(t *testing.T) {
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R2")
	ds := storage.NewDataset(tr)
	driver := storage.NewRelation("R1", "id", "v", "k1")
	for i := int64(0); i < 10; i++ {
		driver.AppendRow(i, i, i+100)
	}
	child := storage.NewRelation("R2", "id", "v", "k1")
	for i := int64(0); i < 5; i++ {
		child.AppendRow(i, i, i+5000) // no key overlap
	}
	ds.SetRelation(plan.Root, driver, "")
	ds.SetRelation(1, child, "k1")
	for _, s := range cost.AllStrategies {
		stats, err := Run(ds, Options{Strategy: s, Order: plan.Order{1}, FlatOutput: true})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if stats.OutputTuples != 0 {
			t.Errorf("%v: expected empty result, got %d", s, stats.OutputTuples)
		}
	}
}

// TestRunValidation: invalid inputs are rejected with errors.
func TestRunValidation(t *testing.T) {
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R2")
	ds := workload.Generate(tr, workload.Config{DriverRows: 10, Seed: 1})

	if _, err := Run(ds, Options{Strategy: cost.STD, Order: plan.Order{}}); err == nil {
		t.Errorf("expected error for wrong-length order")
	}
	if _, err := Run(ds, Options{Strategy: cost.STD, Order: plan.Order{99}}); err == nil {
		t.Errorf("expected error for bogus order")
	}
	if _, err := Run(ds, Options{Strategy: cost.STD, Order: plan.Order{1},
		CollectOutput: func([]int32) {}}); err == nil {
		t.Errorf("expected error for CollectOutput without FlatOutput")
	}
}

// TestCollectOutput: collected tuples must match the reference oracle
// exactly as sets.
func TestCollectOutput(t *testing.T) {
	ds := smallDataset(55, 4, 30)
	wantCount, _ := Reference(ds)
	var got int64
	seen := make(map[uint64]int)
	_, err := Run(ds, Options{
		Strategy:   cost.COM,
		Order:      ds.Tree.AllOrders()[0],
		FlatOutput: true,
		CollectOutput: func(rows []int32) {
			got++
			seen[checksumCanonical(rows)]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCount {
		t.Errorf("collected %d tuples, want %d", got, wantCount)
	}
}

// TestWeightedCost combines the counters with the paper's weights.
func TestWeightedCost(t *testing.T) {
	s := Stats{HashProbes: 100, FilterProbes: 10, SemiJoinProbes: 6, ExpandedTuples: 28}
	w := cost.DefaultWeights()
	want := 100 + 0.5*16 + 28.0/14.0
	if got := s.WeightedCost(w); math.Abs(got-want) > 1e-12 {
		t.Errorf("WeightedCost = %v, want %v", got, want)
	}
}

// TestSemiJoinOrderOption: a custom phase-1 order must be honored and
// not change the result.
func TestSemiJoinOrderOption(t *testing.T) {
	tr := plan.NewTree("R1")
	a := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R2")
	b := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R3")
	ds := workload.Generate(tr, workload.Config{DriverRows: 200, Seed: 3})
	wantCount, wantSum := Reference(ds)
	for _, sj := range []map[plan.NodeID][]plan.NodeID{
		{plan.Root: {a, b}},
		{plan.Root: {b, a}},
	} {
		stats, err := Run(ds, Options{
			Strategy: cost.SJCOM, Order: plan.Order{a, b},
			FlatOutput: true, SemiJoins: sj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.OutputTuples != wantCount || (wantCount > 0 && stats.Checksum != wantSum) {
			t.Fatalf("semi-join order %v changed the result", sj)
		}
	}
}
