package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run records spans from the benchmark's own code, around
// each public call it makes: a root span per request (a read from its
// issue, a write from its due time), a child for the service or HTTP
// call, and under a read's call two retroactive children built from
// the returned Result.Queued and Result.Elapsed. A layer's self time is
// its span's duration minus what its children cover.

// Span names. layerOf maps each to the layer key used in metric names.
const (
	spanRead             = "read"
	spanWrite            = "write"
	spanQuery            = "service.Query"
	spanHTTPQuery        = "HTTPRunner.Query"
	spanMutate           = "service.Mutate"
	spanHTTPMutate       = "HTTPRunner.Mutate"
	spanQueue            = "queue"
	spanExec             = "exec"
	noParent       int32 = -1
)

var layerOf = map[string]string{
	spanRead:       "client",
	spanQuery:      "call",
	spanHTTPQuery:  "call",
	spanQueue:      "queue",
	spanExec:       "exec",
	spanWrite:      "writer",
	spanMutate:     "mutate",
	spanHTTPMutate: "mutate",
}

// readLayers and writeLayers are the layers of the "where a
// millisecond goes" table, in blocking order.
var (
	readLayers  = []string{"client", "call", "queue", "exec"}
	writeLayers = []string{"writer", "mutate"}
)

// span is one recorded interval; Start and End are nanoseconds since
// the recorder's epoch, Parent indexes the same recorder's spans.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder holds one goroutine's spans in memory; a nil recorder
// records nothing, which is the untraced path.
type recorder struct {
	epoch time.Time
	spans []span
	// nextReq numbers this recorder's requests; the recorder's index in
	// its top bits makes request ids unique across recorders.
	nextReq int64
}

func newRecorder(epoch time.Time, index int64) *recorder {
	return &recorder{epoch: epoch, nextReq: index << 40}
}

func (r *recorder) newRequest() int64 {
	r.nextReq++
	return r.nextReq
}

func (r *recorder) add(name string, req int64, parent int32, start, end time.Time) int32 {
	if r == nil {
		return noParent
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return int32(len(r.spans) - 1)
}

// selfTimes returns each span's self time: its duration minus the
// union of its children's intervals clipped to it.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the "where a millisecond goes" table.
type layerRow struct {
	layer  string
	selfMS float64 // mean self time per request of the layer's kind
	share  float64 // share of the kind's total root time
}

// whereTable aggregates the recorders' spans into per-layer self times.
// Read layers are averaged over reads and shared out of total read
// time; write layers likewise over writes.
func whereTable(recs []*recorder) []layerRow {
	self := map[string]int64{}
	var readTotal, writeTotal, reads, writes int64
	for _, r := range recs {
		st := selfTimes(r.spans)
		for i, s := range r.spans {
			self[layerOf[s.Name]] += st[i]
			switch s.Name {
			case spanRead:
				readTotal += s.End - s.Start
				reads++
			case spanWrite:
				writeTotal += s.End - s.Start
				writes++
			}
		}
	}
	var rows []layerRow
	for _, l := range readLayers {
		rows = append(rows, layerRow{l, ratio(float64(self[l]), float64(reads)) / 1e6,
			ratio(float64(self[l]), float64(readTotal))})
	}
	for _, l := range writeLayers {
		rows = append(rows, layerRow{l, ratio(float64(self[l]), float64(writes)) / 1e6,
			ratio(float64(self[l]), float64(writeTotal))})
	}
	return rows
}

// writeSpans writes every recorded span as one JSON line, each
// recorder's parent indices rebased onto the file's line numbers.
func writeSpans(path string, recs []*recorder) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := int32(0)
	for _, r := range recs {
		for _, s := range r.spans {
			if s.Parent != noParent {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		base += int32(len(r.spans))
	}
	return w.Flush()
}

func printWhereTable(out io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(out, "where a millisecond goes (%s, traced run):\n", workload)
	fmt.Fprintf(out, "  %-8s %12s %8s\n", "layer", "self ms/req", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-8s %12.4f %7.1f%%\n", r.layer, r.selfMS, 100*r.share)
	}
}
