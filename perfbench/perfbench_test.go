package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests check the benchmark itself — its metric output and its
// oracle check — at a tiny size; they say nothing about the program's
// speed.

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
		"--rows", "300", "--spans", filepath.Join(t.TempDir(), "spans.jsonl")}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s --trace %s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s --trace %s: last line is not the result: %v", workload, trace, err)
	}
	return r
}

// Every workload of the benchmark, including those BENCHMARK.json does
// not list, must print every metric BENCHMARK.json names.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	c := loadContract(t)
	for _, listed := range c.Workload {
		found := false
		for _, w := range workloads {
			found = found || w.name == listed.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not have", listed.Name)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": c.EndToEnd, "1": c.PerLayer} {
			r := runTiny(t, w.name, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < minQueries {
				t.Errorf("%s --trace %s: correct=%v failed=%d attempted=%d", w.name, trace, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json names %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s --trace %s: metric %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s --trace %s: metric %s = %v", w.name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

func TestOracleFlagsCorruptedChecksum(t *testing.T) {
	ctx := context.Background()
	out := &bytes.Buffer{}
	b := &bench{w: workloads[0], seed: 5, rows: 300, dur: 50 * time.Millisecond,
		out: out, metrics: map[string]metric{}}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := b.round(ctx, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b.mismatches != 0 {
		t.Fatalf("set-up answers: %d mismatches against the true oracle", b.mismatches)
	}
	// The set-up answers every template once, and so does a window of
	// minQueries/rounds draws at this size, so the corrupted template is
	// answered and must be flagged.
	b.f.expect[0].Checksum ^= 1
	var rs readStats
	err := b.round(ctx, 1, func() error {
		rs, _ = b.window(ctx, b.dur, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.mismatches == 0 || b.mismatches <= rs.mismatches || b.failed < b.mismatches {
		t.Fatalf("corrupted checksum: window mismatches=%d, run mismatches=%d failed=%d",
			rs.mismatches, b.mismatches, b.failed)
	}
	if code := b.report(&bytes.Buffer{}); code != 0 {
		t.Fatalf("report exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct {
		t.Fatal("result line reports correct with a corrupted oracle")
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: spanRead, Parent: noParent, Start: 0, End: 100},
		{Name: spanQuery, Parent: 0, Start: 10, End: 90},
		{Name: spanQueue, Parent: 1, Start: 10, End: 30},
		{Name: spanExec, Parent: 1, Start: 20, End: 80}, // overlaps the queue span
	}
	got := selfTimes(spans)
	want := []int64{20, 10, 20, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}

func TestDeckDealsZipfShares(t *testing.T) {
	const templates = 12
	d := newDeck(templates, 7)
	counts := make([]int, templates)
	for i := 0; i < 3*deckSize; i++ {
		counts[d.draw()]++
	}
	sum := 0.0
	for i := 0; i < templates; i++ {
		sum += math.Pow(float64(1+i), -zipfS)
	}
	for i, n := range counts {
		want := 3 * deckSize * math.Pow(float64(1+i), -zipfS) / sum
		if math.Abs(float64(n)-want) > 3 {
			t.Errorf("template %d dealt %d times in three decks, want %.1f", i, n, want)
		}
	}
}
