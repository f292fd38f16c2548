package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"desh/internal/stream"
)

// earlySpec is the early-warn feed: an in-order M1 corpus dense in
// failures, so one run times well over a thousand provisional alerts,
// with one 100-line delivery batch in 10 re-delivered.
var earlySpec = corpusSpec{
	Profile: "M1", Nodes: 2000, Hours: 24, Failures: 750,
	DupBatch: 100, DupEvery: 10,
}

// The open-loop schedule: a burst of earlyBurst lines is due every
// earlyPeriod, 20k lines/s in all, well below what the streamer absorbs.
const (
	earlyBurst  = 100
	earlyPeriod = 5 * time.Millisecond
)

// earlyQuiet is deshd's default per-node alert quiet period.
const earlyQuiet = 2 * time.Minute

// Ground-truth quality floors of early warnings: the repository's
// Figure-4/5 bands.
const (
	minRecall    = 0.65
	minPrecision = 0.70
)

func earlyOpts() []stream.Option {
	return []stream.Option{
		stream.WithShards(procs),
		stream.WithEarlyDetect(true),
		stream.WithQuietPeriod(earlyQuiet),
		stream.WithDedupWindow(256),
	}
}

// runEarlyWarn is the latency-bound path. Each round's set-up trains the
// Table-5 pipeline, writes and loads the model file and builds an
// early-detecting streamer; the timed phase sends the feed in bursts on
// a fixed schedule, whatever the streamer's pace, and drains it with
// Close. Each provisional alert is joined to the line that carried its
// (node, FlaggedAt) and timed from when that line was due.
func runEarlyWarn(e *env) (*outcome, error) {
	root := e.tr.begin("early-warn", -1)
	c, err := genCorpus(earlySpec, e.seed)
	if err != nil {
		return nil, err
	}
	e.diag["corpus"] = c.describe()
	e.diag["schedule"] = fmt.Sprintf("%d lines every %v", earlyBurst, earlyPeriod)
	trainEv, err := trainEvents()
	if err != nil {
		return nil, err
	}
	model := filepath.Join(e.dir, "desh.model")

	out := &outcome{}
	isAnchor := anchorLines(c)
	due := make([]int64, len(c.lines))
	buf := make([]received, 0, len(c.anchor))
	var sm samples
	var late, occupancy, closeMs []float64
	var early []received
	roundLate := make([]float64, 0, (len(c.lines)+earlyBurst-1)/earlyBurst)
	var stateBytes int64
	ingest := &callTimer{tr: e.tr, name: "stream.IngestLine", parent: root}
	timed := 0.0
	for round := 0; timed < e.seconds; round++ {
		rsp := e.tr.begin("round", root)
		clear(due)
		base := liveHeap()

		// Set-up: train, write, load, build.
		sw := time.Now()
		if err := trainModel(e, trainEv, model, rsp); err != nil {
			return nil, err
		}
		p, err := loadModel(e, model, rsp)
		if err != nil {
			return nil, err
		}
		s, err := stream.New(p, earlyOpts()...)
		if err != nil {
			return nil, err
		}
		sm.setup = append(sm.setup, time.Since(sw).Seconds())
		wait := collect(s.Alerts(), buf[:0])

		// Timed phase: the burst schedule, then Close.
		tsp := e.tr.begin("timed", rsp)
		ingest.parent = tsp
		sm.steal.begin()
		roundLate = roundLate[:0]
		t0 := time.Now()
		for k, lo := 0, 0; lo < len(c.lines); k, lo = k+1, lo+earlyBurst {
			dueAt := t0.Add(time.Duration(k) * earlyPeriod)
			// Timers fire up to a millisecond late here; sleeping short of
			// the due time and yielding until it keeps the generator on
			// schedule without holding a CPU from the shards.
			if d := time.Until(dueAt) - time.Millisecond; d > 0 {
				time.Sleep(d)
			}
			for time.Now().Before(dueAt) {
				runtime.Gosched()
			}
			roundLate = append(roundLate, float64(time.Since(dueAt).Microseconds())/1e3)
			for i := lo; i < min(lo+earlyBurst, len(c.lines)); i++ {
				if isAnchor[i] {
					due[i] = dueAt.UnixNano()
				}
				var c0 time.Time
				if e.tr.on {
					c0 = time.Now()
				}
				if err := s.IngestLine(c.lines[i]); err != nil {
					out.failed++
				}
				if e.tr.on {
					ingest.add(c0, time.Now())
				}
			}
		}
		ingest.flush()
		fed := time.Since(t0)
		csp := e.tr.begin("stream.Close", tsp)
		cw := time.Now()
		if err := s.Close(); err != nil {
			out.problemf("close: %v", err)
		}
		closeMs = append(closeMs, float64(time.Since(cw).Microseconds())/1e3)
		e.tr.end(csp, 1)
		sm.steal.end()
		e.tr.end(tsp, int64(len(c.lines)))
		alerts := wait()
		stateBytes = int64(liveHeap()) - int64(base)
		sm.heapMB = append(sm.heapMB, float64(stateBytes)/1e6)
		m := s.SnapshotMetrics()
		runtime.KeepAlive(s)
		e.tr.end(rsp, int64(len(c.lines)))

		late = append(late, roundLate...)
		out.attempted += int64(len(c.lines))
		timed += fed.Seconds()
		sm.tput = append(sm.tput, float64(len(c.lines))/fed.Seconds())
		occupancy = append(occupancy, m.BatchOccupancy)

		for _, p := range checkEarlyWarn(alerts, c.anchor, earlyQuiet) {
			out.problemf("round %d: %s", round, p)
		}
		if m.AlertsDropped != 0 || m.Duplicates != int64(c.nonSafeDups) {
			out.problemf("round %d: %d alerts dropped; dedup ring caught %d duplicates, %d were injected",
				round, m.AlertsDropped, m.Duplicates, c.nonSafeDups)
		}
		early = early[:0]
		for _, a := range alerts {
			if a.Provisional {
				early = append(early, a)
			}
		}
		for _, p := range qualityProblems(quality(early, c.run.Failures)) {
			out.problemf("round %d: %s", round, p)
		}
		sm.score(early, c.run.Failures)
		sm.lat = latencies(early, c.anchor, due, sm.lat)
	}
	e.diag["generator_late_ms_p50"] = round4(quantile(late, 0.5))
	e.diag["generator_late_ms_max"] = round4(quantile(late, 1))
	out.e2e = sm.endToEnd(e.diag)
	if e.tr.on {
		e.tr.end(root, out.attempted)
		out.layers = layerMetrics(e, c, model, trainEv, root)
		out.layers["stream.ingest_line_ns"] = metric{e.tr.perOp("stream.IngestLine", time.Nanosecond), "ns/line"}
		out.layers["stream.close_ms"] = metric{median(closeMs), "ms"}
		out.layers["stream.batch_occupancy"] = metric{median(occupancy), "events/wakeup"}
		out.layers["stream.state_bytes_per_node"] = metric{float64(stateBytes) / float64(c.activeNodes()), "B/node"}
	}
	return out, nil
}
