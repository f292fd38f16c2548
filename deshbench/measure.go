package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"desh/internal/logsim"
)

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTicks reads the aggregate cpu line of /proc/stat: total ticks and
// steal ticks. ok is false where the file is unavailable.
func cpuTicks() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter accumulates host CPU steal over the timed phases only. It
// is a diagnostic for spread; no run is discarded on it.
type stealMeter struct {
	total, steal uint64
	t0, s0       uint64
	ok           bool
}

func (m *stealMeter) begin() { m.t0, m.s0, m.ok = cpuTicks() }

func (m *stealMeter) end() {
	if !m.ok {
		return
	}
	if t, s, ok := cpuTicks(); ok {
		m.total += t - m.t0
		m.steal += s - m.s0
	}
}

// percent returns steal as a share of all CPU ticks, -1 if unknown.
func (m *stealMeter) percent() float64 {
	if m.total == 0 {
		return -1
	}
	return round4(100 * float64(m.steal) / float64(m.total))
}

// callTimer times individual calls inside a hot loop and rolls them up
// into one span per chunk of calls, so a traced run keeps thousands of
// spans rather than millions. Its span covers exactly the summed call
// time, starting at the chunk's first call.
type callTimer struct {
	tr     *tracer
	name   string
	parent int
	first  time.Time
	busy   time.Duration
	n      int64
}

const callChunk = 4096

func (c *callTimer) add(t0, t1 time.Time) {
	if c.n == 0 {
		c.first = t0
	}
	c.busy += t1.Sub(t0)
	c.n++
	if c.n == callChunk {
		c.flush()
	}
}

func (c *callTimer) flush() {
	if c.n == 0 {
		return
	}
	c.tr.record(c.name, c.parent, c.first, c.first.Add(c.busy), c.n)
	c.busy, c.n = 0, 0
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// samples collects a run's per-round figures; the reported value of each
// end-to-end metric is its median over rounds, and alert latencies are
// pooled over rounds.
type samples struct {
	tput, setup, heapMB, recall, precision, lead []float64
	lat                                          []float64 // ms
	steal                                        stealMeter
}

// score adds one round's ground-truth quality.
func (s *samples) score(alerts []received, failures []logsim.FailureRecord) {
	r, p, l := quality(alerts, failures)
	s.recall, s.precision, s.lead = append(s.recall, r), append(s.precision, p), append(s.lead, l)
}

// endToEnd renders the end-to-end metrics and notes the diagnostics
// printed beside them: rounds, host CPU steal over the timed phases,
// the timed alert count and the p99 alert latency (reported, not
// bounded: it does not repeat within any bound this host allows).
func (s *samples) endToEnd(diag map[string]any) map[string]metric {
	diag["rounds"] = len(s.tput)
	diag["cpu_steal_pct"] = s.steal.percent()
	diag["timed_alerts"] = len(s.lat)
	diag["alert_latency_p99_ms"] = round4(quantile(s.lat, 0.99))
	return map[string]metric{
		"throughput_lps":       {median(s.tput), "lines/s"},
		"alert_latency_p50_ms": {quantile(s.lat, 0.5), "ms"},
		"setup_s":              {median(s.setup), "s"},
		"heap_live_mb":         {median(s.heapMB), "MB"},
		"recall":               {median(s.recall), "ratio"},
		"precision":            {median(s.precision), "ratio"},
		"lead_time_mean_s":     {median(s.lead), "s"},
	}
}
