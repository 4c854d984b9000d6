package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m2mjoin/internal/service"
)

// zipfS is the template popularity skew of service.StandardMix loads:
// template i is drawn with probability proportional to (1+i)^-1.3.
const zipfS = 1.3

// deckSize is the number of cards in a client's deck; the rarest of the
// twelve templates gets ten of them.
const deckSize = 600

// deck deals one client's template draws. It holds every template in
// its Zipf share of deckSize cards (largest remainder rounding), is
// shuffled from the seed, and is reshuffled each time it runs out. A
// run therefore sends the templates in Zipf proportion to within one
// deck, whatever the seed: with independent Zipf draws the share of
// the few slowest templates, and with it qps and the median latency,
// varied from seed to seed by more than a metric's bound allows.
type deck struct {
	cards []int
	next  int
	rng   *rand.Rand
}

func newDeck(templates int, seed int64) *deck {
	share := make([]float64, templates)
	sum := 0.0
	for i := range share {
		share[i] = math.Pow(float64(1+i), -zipfS)
		sum += share[i]
	}
	counts := make([]int, templates)
	order := make([]int, templates)
	dealt := 0
	for i := range share {
		share[i] *= deckSize / sum
		counts[i] = int(share[i])
		dealt += counts[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return share[order[a]]-float64(counts[order[a]]) > share[order[b]]-float64(counts[order[b]])
	})
	for k := 0; dealt < deckSize; k++ {
		counts[order[k%templates]]++
		dealt++
	}
	d := &deck{rng: rand.New(rand.NewSource(seed))}
	for t, n := range counts {
		for j := 0; j < n; j++ {
			d.cards = append(d.cards, t)
		}
	}
	d.next = len(d.cards)
	return d
}

// draw returns the next template index.
func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// readStats aggregates one window's closed-loop reads. Latencies are
// per completed query, in milliseconds.
type readStats struct {
	latMS, queuedMS, execMS, selfMS []float64
	attempted, errors, mismatches   int64
	duration                        time.Duration
	// Executor counters summed over completed queries.
	hashProbes, filterProbes, semiJoinProbes int64
	intermediate, expanded                   int64
	tagHits, tagMisses                       int64
}

func (r *readStats) merge(o *readStats) {
	r.latMS = append(r.latMS, o.latMS...)
	r.queuedMS = append(r.queuedMS, o.queuedMS...)
	r.execMS = append(r.execMS, o.execMS...)
	r.selfMS = append(r.selfMS, o.selfMS...)
	r.attempted += o.attempted
	r.errors += o.errors
	r.mismatches += o.mismatches
	r.hashProbes += o.hashProbes
	r.filterProbes += o.filterProbes
	r.semiJoinProbes += o.semiJoinProbes
	r.intermediate += o.intermediate
	r.expanded += o.expanded
	r.tagHits += o.tagHits
	r.tagMisses += o.tagMisses
	r.duration += o.duration
}

func (r *readStats) queries() int { return len(r.latMS) }

// readLoad is one window of closed-loop clients: each sends its next
// query only when the previous answer is back, as callers of the
// service do, and draws its templates from its own deck, which carries
// on from one window to the next. The window lasts dur, and longer
// until minQueries have completed (at most 3×dur).
type readLoad struct {
	f          *fixture
	tgt        target
	decks      []*deck
	dur        time.Duration
	minQueries int64
	callSpan   string
}

// run drives the clients; recs, when non-nil, holds one recorder per
// client.
func (l readLoad) run(ctx context.Context, recs []*recorder) readStats {
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(3 * l.dur)
	per := make([]readStats, len(l.decks))
	var wg sync.WaitGroup
	for c := range l.decks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rec *recorder
			if recs != nil {
				rec = recs[c]
			}
			st := &per[c]
			for {
				now := time.Now()
				if (now.Sub(start) >= l.dur && done.Load() >= l.minQueries) || now.After(deadline) || ctx.Err() != nil {
					return
				}
				t := l.decks[c].draw()
				st.attempted++
				t0 := time.Now()
				res, err := l.tgt.Query(ctx, l.f.templates[t])
				t1 := time.Now()
				if err != nil {
					st.errors++
					continue
				}
				ok := l.f.check(t, res.Stats)
				t2 := time.Now()
				if !ok {
					st.mismatches++
				}
				done.Add(1)
				lat := t1.Sub(t0)
				st.latMS = append(st.latMS, ms(lat))
				st.queuedMS = append(st.queuedMS, ms(res.Queued))
				st.execMS = append(st.execMS, ms(res.Elapsed))
				st.selfMS = append(st.selfMS, ms(lat-res.Queued-res.Elapsed))
				s := res.Stats
				st.hashProbes += s.HashProbes
				st.filterProbes += s.FilterProbes
				st.semiJoinProbes += s.SemiJoinProbes
				st.intermediate += s.IntermediateTuples
				st.expanded += s.ExpandedTuples
				st.tagHits += s.TagHits
				st.tagMisses += s.TagMisses
				if rec != nil {
					req := rec.newRequest()
					root := rec.add(spanRead, req, noParent, t0, t2)
					call := rec.add(l.callSpan, req, root, t0, t1)
					rec.add(spanQueue, req, call, t0, t0.Add(res.Queued))
					rec.add(spanExec, req, call, t1.Add(-res.Elapsed), t1)
				}
			}
		}(c)
	}
	wg.Wait()
	var out readStats
	for c := range per {
		out.merge(&per[c])
	}
	out.duration = time.Since(start)
	return out
}

// writeStats aggregates a writer's batches.
type writeStats struct {
	commitMS, lateMS, mutateUS []float64
	repairs                    int64
	attempted, errors          int64
}

func (w *writeStats) merge(o writeStats) {
	w.commitMS = append(w.commitMS, o.commitMS...)
	w.lateMS = append(w.lateMS, o.lateMS...)
	w.mutateUS = append(w.mutateUS, o.mutateUS...)
	w.repairs += o.repairs
	w.attempted += o.attempted
	w.errors += o.errors
}

// writer sends seeded mutation batches. With a rate it is open-loop,
// on a due-time schedule: batch k is due at start + k/rate and is sent
// at once when the writer is behind, so no tick is skipped and a stall
// shows as lateness and as commit latency, which is timed from the due
// time. With rate 0 it is closed-loop: each batch is due when the
// previous one has committed. Each batch appends
// one to three rows with negative values, which join with nothing,
// and about half the batches delete one of the writer's own earlier
// appends, so every answer is the same at every version.
type writer struct {
	tgt      target
	targets  []service.MutateTarget
	seed     int64
	rate     float64
	callSpan string
}

// run sends batches until stop is closed or, when limit > 0, limit
// batches have been sent.
func (w writer) run(ctx context.Context, start time.Time, limit int, stop <-chan struct{}, rec *recorder) writeStats {
	var st writeStats
	rng := rand.New(rand.NewSource(w.seed ^ 0x5bd1e995))
	var interval time.Duration
	if w.rate > 0 {
		interval = time.Duration(float64(time.Second) / w.rate)
	}
	// mine[i] holds rows the writer appended to targets[i] and has not
	// deleted yet.
	mine := make([][]int, len(w.targets))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for k := 0; limit <= 0 || k < limit; k++ {
		due := start.Add(time.Duration(k) * interval)
		if interval == 0 {
			due = time.Now()
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return st
			case <-ctx.Done():
				return st
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return st
			default:
			}
		}
		ti := rng.Intn(len(w.targets))
		t := w.targets[ti]
		nAppend := 1 + rng.Intn(3)
		ops := make([]service.MutationSpec, 0, nAppend+1)
		for i := 0; i < nAppend; i++ {
			vals := make([]int64, t.Arity)
			for j := range vals {
				vals[j] = -(1 + rng.Int63n(1<<40))
			}
			ops = append(ops, service.MutationSpec{Op: "append", Relation: t.Relation, Values: vals})
		}
		if len(mine[ti]) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(mine[ti]))
			ops = append(ops, service.MutationSpec{Op: "delete", Relation: t.Relation, Row: mine[ti][j]})
			mine[ti] = append(mine[ti][:j], mine[ti][j+1:]...)
		}
		st.attempted++
		sent := time.Now()
		res, err := w.tgt.Mutate(ctx, service.MutateRequest{Dataset: t.Dataset, Ops: ops})
		end := time.Now()
		if err != nil {
			st.errors++
			continue
		}
		st.lateMS = append(st.lateMS, ms(sent.Sub(due)))
		st.commitMS = append(st.commitMS, ms(end.Sub(due)))
		st.mutateUS = append(st.mutateUS, us(end.Sub(sent)))
		st.repairs += int64(res.Repaired)
		if n, ok := res.Rows[t.Relation]; ok {
			for r := n - nAppend; r < n; r++ {
				mine[ti] = append(mine[ti], r)
			}
		}
		if rec != nil {
			req := rec.newRequest()
			root := rec.add(spanWrite, req, noParent, due, end)
			rec.add(w.callSpan, req, root, sent, end)
		}
	}
	return st
}
