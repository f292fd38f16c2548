package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around a public function. N is the number of operations the span
// covers (lines, records, chains, calls), so per-operation figures are
// measured where the work happens.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A disabled tracer records nothing and costs one branch per call, so
// the untraced run measures the program alone.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id, or
// -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id, covering n operations.
func (t *tracer) end(id int, n int64) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// record adds a closed span whose endpoints the caller measured itself
// (spans gathered on another goroutine, such as POSTs seen through the
// router's transport).
func (t *tracer) record(name string, parent int, startT, endT time.Time, n int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent,
		Start: startT.Sub(t.t0).Nanoseconds(), End: endT.Sub(t.t0).Nanoseconds(), N: n})
	t.mu.Unlock()
}

// layerStat is the per-name aggregate of closed spans.
type layerStat struct {
	Count        int
	N            int64
	Total, Child int64 // ns
}

// stats aggregates spans by name; Child sums the part of each span's
// interval its direct children cover, so Total−Child is self time.
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Count++
		st.N += s.N
		st.Total += s.End - s.Start
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			lo, hi := max(s.Start, p.Start), s.End
			if p.End >= 0 {
				hi = min(hi, p.End)
			}
			if hi > lo {
				ps := out[p.Name]
				if ps == nil {
					ps = &layerStat{}
					out[p.Name] = ps
				}
				ps.Child += hi - lo
			}
		}
	}
	return out
}

// perOp returns total span time per covered operation for name, in the
// given unit (nanoseconds per unit), 0 when no span of that name closed.
func (t *tracer) perOp(name string, unit time.Duration) float64 {
	st := t.stats()[name]
	if st == nil || st.N == 0 {
		return 0
	}
	return float64(st.Total) / float64(st.N) / float64(unit)
}

// mean returns the mean span duration for name in the given unit.
func (t *tracer) mean(name string, unit time.Duration) float64 {
	st := t.stats()[name]
	if st == nil || st.Count == 0 {
		return 0
	}
	return float64(st.Total) / float64(st.Count) / float64(unit)
}

// write saves every span as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	t.mu.Lock()
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// printSelfTimes prints the span table: count, operations, total and
// self time per span name, largest self time first.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := st[names[i]], st[names[j]]
		return a.Total-a.Child > b.Total-b.Child
	})
	fmt.Fprintf(w, "%-34s %8s %10s %12s %12s\n", "span", "count", "ops", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "%-34s %8d %10d %12.2f %12.2f\n", n, s.Count, s.N,
			float64(s.Total)/1e6, float64(s.Total-s.Child)/1e6)
	}
}
