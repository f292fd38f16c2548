package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"desh/internal/stream"
)

// replaySpec is the replay-durable feed: an M1 corpus with its natural
// Safe chatter, per-node disorder inside a 30 s allowed-lateness window,
// and one 64-line delivery batch in 16 re-delivered.
var replaySpec = corpusSpec{
	Profile: "M1", Nodes: 4000, Hours: 24, Failures: 800,
	Lateness: 30 * time.Second, DupBatch: 64, DupEvery: 16,
}

// walSyncEvery keeps fsync off the hot path: see README, "Disk".
const walSyncEvery = 1 << 30

// replayCut is the share of the feed ingested before the crash.
const replayCut = 0.2

// replayOpts arms the streamer as deshd would run a durable replay:
// state dir with default fsync and snapshot cadence, reorder window and
// dedup ring on, and no quiet period, so that every flagged verdict of
// batch Predict must surface as exactly one alert.
func replayOpts(dir string) []stream.Option {
	return []stream.Option{
		stream.WithShards(procs),
		stream.WithQuietPeriod(0),
		// Large enough that a collector descheduled behind the producer
		// never makes a shard drop an alert (the check counts drops).
		stream.WithAlertBuffer(1 << 16),
		stream.WithStateDir(dir),
		stream.WithWALSyncEvery(walSyncEvery),
		stream.WithAllowedLateness(replaySpec.Lateness),
		stream.WithDedupWindow(256),
	}
}

// runReplayDurable is the deshd replay/restart path. Each round ingests
// the feed's first fifth into a durable streamer and kills it; the
// timed set-up is crash recovery (model load plus stream.New on the
// state dir), and the timed phase is the rest of the feed as fast as
// IngestLine accepts it, through Close. Rounds repeat until the timed
// phases add up to the run length.
func runReplayDurable(e *env) (*outcome, error) {
	root := e.tr.begin("replay-durable", -1)
	c, err := genCorpus(replaySpec, e.seed)
	if err != nil {
		return nil, err
	}
	e.diag["corpus"] = c.describe()
	trainEv, err := trainEvents()
	if err != nil {
		return nil, err
	}
	model := filepath.Join(e.dir, "desh.model")
	if err := trainModel(e, trainEv, model, root); err != nil {
		return nil, err
	}
	refP, err := loadModel(e, model, root)
	if err != nil {
		return nil, err
	}
	want, err := batchReference(refP, c.events)
	if err != nil {
		return nil, err
	}
	e.diag["reference_alerts"] = len(want)

	out := &outcome{}
	cut := int(float64(len(c.lines)) * replayCut)
	isAnchor := anchorLines(c)
	due := make([]int64, len(c.lines))
	bufPre := make([]received, 0, len(want)+64)
	bufPost := make([]received, 0, len(want)+64)
	var sm samples
	var occupancy, recoverMs, closeMs []float64
	var stateBytes int64
	ingest := &callTimer{tr: e.tr, name: "stream.IngestLine", parent: root}
	timed := 0.0
	for round := 0; timed < e.seconds; round++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("state-%d", round))
		rsp := e.tr.begin("round", root)

		// The incarnation that crashes.
		p0, err := loadModel(e, model, rsp)
		if err != nil {
			return nil, err
		}
		s0, err := stream.New(p0, replayOpts(dir)...)
		if err != nil {
			return nil, err
		}
		waitPre := collect(s0.Alerts(), bufPre[:0])
		for _, line := range c.lines[:cut] {
			if err := s0.IngestLine(line); err != nil {
				out.failed++
			}
		}
		s0.Kill()
		pre := waitPre()
		if m := s0.SnapshotMetrics(); m.AlertsDropped != 0 || m.WALErrors != 0 {
			out.problemf("pre-crash incarnation: %d alerts dropped, %d WAL errors", m.AlertsDropped, m.WALErrors)
		}
		s0, p0 = nil, nil
		clear(due)
		base := liveHeap()

		// Set-up: crash recovery.
		sw := time.Now()
		p1, err := loadModel(e, model, rsp)
		if err != nil {
			return nil, err
		}
		nsp := e.tr.begin("stream.New(recover)", rsp)
		nw := time.Now()
		s1, err := stream.New(p1, replayOpts(dir)...)
		recoverMs = append(recoverMs, float64(time.Since(nw).Microseconds())/1e3)
		e.tr.end(nsp, 1)
		if err != nil {
			return nil, err
		}
		sm.setup = append(sm.setup, time.Since(sw).Seconds())
		waitPost := collect(s1.Alerts(), bufPost[:0])

		// Timed phase: the rest of the feed, through Close.
		tsp := e.tr.begin("timed", rsp)
		ingest.parent = tsp
		sm.steal.begin()
		sw = time.Now()
		for i := cut; i < len(c.lines); i++ {
			var t0 time.Time
			if isAnchor[i] || e.tr.on {
				t0 = time.Now()
				due[i] = t0.UnixNano()
			}
			if err := s1.IngestLine(c.lines[i]); err != nil {
				out.failed++
			}
			if e.tr.on {
				ingest.add(t0, time.Now())
			}
		}
		ingest.flush()
		csp := e.tr.begin("stream.Close", tsp)
		cw := time.Now()
		if err := s1.Close(); err != nil {
			out.problemf("close: %v", err)
		}
		closeMs = append(closeMs, float64(time.Since(cw).Microseconds())/1e3)
		e.tr.end(csp, 1)
		el := time.Since(sw)
		sm.steal.end()
		e.tr.end(tsp, int64(len(c.lines)-cut))
		post := waitPost()
		stateBytes = int64(liveHeap()) - int64(base)
		sm.heapMB = append(sm.heapMB, float64(stateBytes)/1e6)
		m := s1.SnapshotMetrics()
		runtime.KeepAlive(s1)
		e.tr.end(rsp, int64(len(c.lines)))

		out.attempted += int64(len(c.lines))
		timed += el.Seconds()
		sm.tput = append(sm.tput, float64(len(c.lines)-cut)/el.Seconds())
		occupancy = append(occupancy, m.BatchOccupancy)

		all := append(pre, post...)
		for _, p := range checkBatchEquivalence(all, want) {
			out.problemf("round %d: %s", round, p)
		}
		if m.Duplicates != int64(c.nonSafeDups) {
			out.problemf("round %d: dedup ring caught %d duplicates, %d were injected", round, m.Duplicates, c.nonSafeDups)
		}
		if m.AlertsDropped != 0 || m.WALErrors != 0 || m.Late != 0 || m.ReorderOverflow != 0 {
			out.problemf("round %d: %d alerts dropped, %d WAL errors, %d late, %d reorder overflows",
				round, m.AlertsDropped, m.WALErrors, m.Late, m.ReorderOverflow)
		}
		sm.score(all, c.run.Failures)
		sm.lat = latencies(post, c.anchor, due, sm.lat)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	out.e2e = sm.endToEnd(e.diag)
	if e.tr.on {
		e.tr.end(root, int64(out.attempted))
		out.layers = layerMetrics(e, c, model, trainEv, root)
		out.layers["stream.ingest_line_ns"] = metric{e.tr.perOp("stream.IngestLine", time.Nanosecond), "ns/line"}
		out.layers["stream.recover_ms"] = metric{median(recoverMs), "ms"}
		out.layers["stream.close_ms"] = metric{median(closeMs), "ms"}
		out.layers["stream.batch_occupancy"] = metric{median(occupancy), "events/wakeup"}
		out.layers["stream.state_bytes_per_node"] = metric{float64(stateBytes) / float64(c.activeNodes()), "B/node"}
	}
	return out, nil
}
