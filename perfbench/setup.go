package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// shapes are the service.StandardMix join shapes, in its order.
var shapes = []string{"snowflake32", "star", "path"}

// treeSeed fixes the join trees' edge statistics (match probabilities
// and fanouts) for every --seed, so that all seeds have the same
// expected work per query and runs with different seeds can be
// compared; --seed varies the generated rows, the template draws and
// the writer's batches.
const treeSeed = 1

// dataCandidates is how many datasets of each shape a seed generates
// to pick the one a run uses. Equal expected work is not equal work:
// across ten seeds, one generated snowflake32 dataset answered its
// unselected query with 6 720 to 23 866 tuples, and the two snowflake
// templates that hold the median latency took a third longer on the
// largest than on a typical one. The candidate with the median answer
// size keeps the rows random but the work typical.
const dataCandidates = 11

func buildTree(i int) (*plan.Tree, error) { return service.BuildTree(shapes[i], treeSeed+int64(i)) }

// pickDataSeeds returns, per shape, the generator seed of the dataset
// a run with seed uses: of dataCandidates datasets generated from
// seed, the one whose unselected query has the median output size by
// exec.ReferenceOpts.
func pickDataSeeds(seed int64, rows int) ([]int64, error) {
	picked := make([]int64, len(shapes))
	for i := range shapes {
		tree, err := buildTree(i)
		if err != nil {
			return nil, err
		}
		type candidate struct {
			seed   int64
			tuples int64
		}
		cands := make([]candidate, dataCandidates)
		for c := range cands {
			ds := seed*7919 + int64(i) + int64(c)*1000003
			n, _ := exec.ReferenceOpts(workload.Generate(tree, workload.Config{DriverRows: rows, Seed: ds}), nil, nil)
			cands[c] = candidate{ds, n}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].tuples < cands[b].tuples })
		picked[i] = cands[dataCandidates/2].seed
	}
	return picked, nil
}

// fixture is one run's generated input: three datasets, the twelve
// StandardMix templates over them and each template's expected answer.
type fixture struct {
	names         []string
	datasets      []*storage.Dataset
	mutateTargets []service.MutateTarget
	templates     []service.Request
	// dsOf and sels give each template's dataset index and its
	// selections in executor form, for the oracle and the replay pass.
	dsOf   []int
	sels   [][]exec.Selection
	expect []answer
}

// answer is what the oracle check compares: the flat output count and
// the order-independent output checksum.
type answer struct {
	Tuples   int64  `json:"tuples"`
	Checksum uint64 `json:"checksum"`
}

// generate builds the datasets, one per shape from dataSeeds, with
// rows driver rows each, and the templates. Per dataset the templates
// are those of service.StandardMix: auto-planned, BVP+COM, SJ+COM and
// COM with a selection on one driver row. Unlike StandardMix's, they
// ask for flat output: a factorized COM answer carries no checksum, and
// the oracle check compares the checksum of every answer.
func generate(dataSeeds []int64, rows int) (*fixture, error) {
	f := &fixture{}
	for i, shape := range shapes {
		tree, err := buildTree(i)
		if err != nil {
			return nil, err
		}
		ds := workload.Generate(tree, workload.Config{DriverRows: rows, Seed: dataSeeds[i]})
		name := "load_" + shape
		f.names = append(f.names, name)
		f.datasets = append(f.datasets, ds)
		f.mutateTargets = append(f.mutateTargets, service.MutateTargetsFor(name, tree)...)
		driver := tree.Name(plan.Root)
		sel := []exec.Selection{{Rel: plan.Root, Column: "id", Value: int64(i)}}
		f.templates = append(f.templates,
			service.Request{Dataset: name, FlatOutput: true},
			service.Request{Dataset: name, Strategy: "BVP+COM", FlatOutput: true},
			service.Request{Dataset: name, Strategy: "SJ+COM", FlatOutput: true},
			service.Request{Dataset: name, Strategy: "COM", FlatOutput: true, Selections: []service.SelectionSpec{
				{Relation: driver, Column: "id", Value: int64(i)},
			}},
		)
		f.dsOf = append(f.dsOf, i, i, i, i)
		f.sels = append(f.sels, nil, nil, nil, sel)
	}
	return f, nil
}

// computeOracle fills f.expect with exec.ReferenceOpts, the
// tuple-at-a-time reference evaluator, once per template.
func (f *fixture) computeOracle() {
	f.expect = make([]answer, len(f.templates))
	for t := range f.templates {
		n, sum := exec.ReferenceOpts(f.datasets[f.dsOf[t]], nil, f.sels[t])
		f.expect[t] = answer{Tuples: n, Checksum: sum}
	}
}

func (a answer) matches(st exec.Stats) bool {
	return st.OutputTuples == a.Tuples && st.Checksum == a.Checksum
}

// check reports whether a result answers template t correctly. Writer
// rows never join (their values are negative), so the answer is the
// same at every version.
func (f *fixture) check(t int, st exec.Stats) bool { return f.expect[t].matches(st) }

// target is what the load drives: the in-process *service.Service or
// a *service.HTTPRunner against a loopback server wrapping one.
type target interface {
	service.Runner
	service.Mutator
}

// serving is one started service under test.
type serving struct {
	svc    *service.Service
	server *httptest.Server
	target target
}

func (s *serving) close() {
	if s.server != nil {
		s.server.Close()
	}
}

// setupTimes is one set-up: the whole of it, and the registration of
// the datasets within it.
type setupTimes struct {
	total, register time.Duration
}

// startServing builds a fresh service for the workload, registers the
// fixture's datasets, starts the loopback server when the workload
// goes over HTTP, and executes every template once through the target
// (which plans it, partitions shards and fills the cache). Each of
// these first answers is checked against the oracle; mismatches counts
// those that differ.
func startServing(ctx context.Context, f *fixture, w workloadSpec) (s *serving, t setupTimes, mismatches int, err error) {
	start := time.Now()
	s = &serving{svc: service.New(service.Config{
		CacheBytes: w.cacheBytes,
		Shard:      service.ShardConfig{Shards: w.shards},
	})}
	for i, ds := range f.datasets {
		if _, err := s.svc.RegisterDataset(f.names[i], ds); err != nil {
			return nil, t, 0, fmt.Errorf("register %s: %w", f.names[i], err)
		}
	}
	t.register = time.Since(start)
	s.target = s.svc
	if w.http {
		s.server = httptest.NewServer(service.NewHandler(s.svc))
		s.target = service.NewHTTPRunner(s.server.URL)
	}
	for i, req := range f.templates {
		res, err := s.target.Query(ctx, req)
		if err != nil {
			s.close()
			return nil, t, 0, fmt.Errorf("first execution of template %d: %w", i, err)
		}
		if !f.check(i, res.Stats) {
			mismatches++
		}
	}
	t.total = time.Since(start)
	return s, t, mismatches, nil
}
