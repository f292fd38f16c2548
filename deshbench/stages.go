package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"desh/internal/catalog"
	"desh/internal/chain"
	"desh/internal/core"
	"desh/internal/embed"
	"desh/internal/logparse"
	"desh/internal/par"
	"desh/internal/persist"
	"desh/internal/persist/faultfs"
	"desh/internal/tensor"
)

// layerUnits lists every per-layer metric with its unit. A workload
// whose path does not cross a layer reports 0 for it (the cluster
// metrics outside router-fanout, recovery outside replay-durable).
var layerUnits = map[string]string{
	"logparse.parse_ns":            "ns/line",
	"logparse.parse_allocs":        "allocs/line",
	"label.label_ns":               "ns/line",
	"persist.wal_append_ns":        "ns/record",
	"persist.wal_bytes_per_event":  "B/event",
	"persist.replay_ns_per_record": "ns/record",
	"stream.ingest_line_ns":        "ns/line",
	"stream.recover_ms":            "ms",
	"stream.close_ms":              "ms",
	"stream.batch_occupancy":       "events/wakeup",
	"stream.state_bytes_per_node":  "B/node",
	"chain.feed_ns":                "ns/event",
	"chain.open_chain_ns":          "ns/call",
	"core.detect_us":               "us/chain",
	"core.detect_batch_us":         "us/chain",
	"core.early_detect_us":         "us/event",
	"core.train_s":                 "s",
	"core.load_ms":                 "ms",
	"embed.train_s":                "s",
	"nn.stream_step_ns":            "ns/step",
	"tensor.gate_matvec_ns":        "ns/call",
	"tensor.gate_matmul_row_ns":    "ns/row",
	"cluster.router_ingest_ns":     "ns/line",
	"cluster.instance_ingest_ns":   "ns/line",
	"cluster.post_ms":              "ms/POST",
	"cluster.lines_per_post":       "lines/POST",
	"cluster.flush_ms":             "ms",
}

// detectBatch is the batch width of the DetectBatch replay: the
// streamer's default micro-batch.
const detectBatch = 32

// layerMetrics replays the workload's own inputs stage by stage through
// each layer's public functions — parse, label, chain tracking,
// detection, the LSTM step, the gate kernels, the WAL, and skip-gram
// training — and returns every per-layer metric, with the spans the
// workload itself recorded (train, load) folded in. The caller fills
// the stream and cluster metrics it measured around its own calls.
func layerMetrics(e *env, c *corpus, model string, trainEv []logparse.Event, parent int) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{0, unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, layerUnits[name]} }
	sp := e.tr.begin("stages", parent)
	defer e.tr.end(sp, 1)
	p, err := loadModel(e, model, sp)
	if err != nil {
		return out
	}
	set("core.train_s", e.tr.mean("core.Train", time.Second))
	set("core.load_ms", e.tr.mean("core.Load", time.Millisecond))

	// logparse: every fed line, duplicates included, as IngestLine sees
	// them.
	events := make([]logparse.Event, len(c.lines))
	a0 := mallocs()
	s := e.tr.begin("logparse.ParseLine", sp)
	for i, line := range c.lines {
		events[i], _ = logparse.ParseLine(line)
	}
	e.tr.end(s, int64(len(c.lines)))
	set("logparse.parse_allocs", float64(mallocs()-a0)/float64(len(c.lines)))
	set("logparse.parse_ns", e.tr.perOp("logparse.ParseLine", time.Nanosecond))

	lab := p.Labeler()
	s = e.tr.begin("label.Label", sp)
	safe := 0
	for _, ev := range events {
		if lab.Label(ev.Key) == catalog.Safe {
			safe++
		}
	}
	e.tr.end(s, int64(len(events)))
	set("label.label_ns", e.tr.perOp("label.Label", time.Nanosecond))

	// The non-Safe events in event-time order, encoded by the model's
	// encoder: what the shards feed their trackers.
	enc := p.Encoder()
	var feed []logparse.EncodedEvent
	for _, ev := range c.events {
		if lab.Label(ev.Key) != catalog.Safe {
			feed = append(feed, logparse.EncodedEvent{Event: ev, ID: enc.Encode(ev.Key)})
		}
	}

	// persist: the WAL the durable streamer writes, one event record per
	// non-Safe event at the replay workload's fsync cadence, then read
	// back.
	walDir := filepath.Join(e.dir, "stage-wal")
	fsys := faultfs.OS()
	if w, err := persist.OpenWAL(fsys, walDir, 1, walSyncEvery, 0); err == nil {
		s = e.tr.begin("persist.WAL.Append", sp)
		for _, ev := range feed {
			rec := persist.EventRecord{TimeNano: ev.Time.UnixNano(), Node: ev.Node, Message: ev.Message, Key: ev.Key}
			if _, err := w.Append(persist.EncodeEvent(rec)); err != nil {
				break
			}
		}
		e.tr.end(s, int64(len(feed)))
		if err := w.Close(); err == nil {
			set("persist.wal_append_ns", e.tr.perOp("persist.WAL.Append", time.Nanosecond))
			set("persist.wal_bytes_per_event", float64(dirBytes(walDir))/float64(len(feed)))
			s = e.tr.begin("persist.ReplayWAL", sp)
			st, err := persist.ReplayWAL(fsys, walDir, 0, func(uint64, []byte) error { return nil })
			e.tr.end(s, int64(st.Records))
			if err == nil {
				set("persist.replay_ns_per_record", e.tr.perOp("persist.ReplayWAL", time.Nanosecond))
			}
		}
	}
	_ = os.RemoveAll(walDir)

	// chain: one tracker per node, fed in event-time order; the chains
	// they close (plus the final flush) are the detection inputs.
	cfg := p.Config().ChainCfg
	trackers := map[string]*chain.Tracker{}
	tracker := func(node string) *chain.Tracker {
		t := trackers[node]
		if t == nil {
			t, _ = chain.NewTracker(node, lab, cfg, 4096)
			trackers[node] = t
		}
		return t
	}
	var chains []chain.Chain
	s = e.tr.begin("chain.Tracker.Feed", sp)
	for _, ev := range feed {
		closed, _ := tracker(ev.Node).Feed(ev)
		chains = append(chains, closed...)
	}
	e.tr.end(s, int64(len(feed)))
	set("chain.feed_ns", e.tr.perOp("chain.Tracker.Feed", time.Nanosecond))
	nodes := make([]string, 0, len(trackers))
	for n := range trackers {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		if ch, ok := trackers[n].Flush(); ok {
			chains = append(chains, ch)
		}
	}

	// Early detection: after every appended event, the open chain is
	// taken and re-scored whole, as the early-detect shard path does.
	det := p.NewDetector()
	clear(trackers)
	open := &callTimer{tr: e.tr, name: "chain.Tracker.OpenChain", parent: sp}
	early := &callTimer{tr: e.tr, name: "core.Detector.Detect(open)", parent: sp}
	for _, ev := range feed {
		t := tracker(ev.Node)
		t.Feed(ev)
		t0 := time.Now()
		ch, ok := t.OpenChain()
		t1 := time.Now()
		open.add(t0, t1)
		if ok {
			det.Detect(ch)
			early.add(t1, time.Now())
		}
	}
	open.flush()
	early.flush()
	set("chain.open_chain_ns", e.tr.perOp("chain.Tracker.OpenChain", time.Nanosecond))
	set("core.early_detect_us", e.tr.perOp("core.Detector.Detect(open)", time.Microsecond))

	if len(chains) > 0 {
		s = e.tr.begin("core.Detector.Detect", sp)
		for _, ch := range chains {
			det.Detect(ch)
		}
		e.tr.end(s, int64(len(chains)))
		set("core.detect_us", e.tr.perOp("core.Detector.Detect", time.Microsecond))

		verdicts := make([]core.Verdict, detectBatch)
		s = e.tr.begin("core.Detector.DetectBatch", sp)
		for lo := 0; lo < len(chains); lo += detectBatch {
			hi := min(lo+detectBatch, len(chains))
			det.DetectBatch(chains[lo:hi], verdicts[:hi-lo])
		}
		e.tr.end(s, int64(len(chains)))
		set("core.detect_batch_us", e.tr.perOp("core.Detector.DetectBatch", time.Microsecond))

		// nn: the Phase-2 LSTM stepped over every chain's input vectors.
		st := p.Phase2Model().NewStream()
		steps := &callTimer{tr: e.tr, name: "nn.Stream.Step", parent: sp}
		for _, ch := range chains {
			st.Reset()
			for _, x := range p.VectorizeInput(ch) {
				t0 := time.Now()
				st.Step(x)
				steps.add(t0, time.Now())
			}
		}
		steps.flush()
		set("nn.stream_step_ns", e.tr.perOp("nn.Stream.Step", time.Nanosecond))
	}

	gateKernels(e, p, sp, set)

	// embed: the skip-gram stage of training, on the training corpus.
	tenc := logparse.NewEncoderFromKeys(nil)
	byNode := logparse.ByNode(logparse.EncodeEvents(tenc, trainEv))
	tnodes := make([]string, 0, len(byNode))
	for n := range byNode {
		tnodes = append(tnodes, n)
	}
	sort.Strings(tnodes)
	seqs := make([][]int, 0, len(tnodes))
	for _, n := range tnodes {
		seq := make([]int, len(byNode[n]))
		for i, ev := range byNode[n] {
			seq[i] = ev.ID
		}
		seqs = append(seqs, seq)
	}
	pool := par.NewPool(0)
	ecfg := embed.DefaultConfig(p.Config().EmbedDim)
	ecfg.Seed = p.Config().Seed
	ecfg.Pool = pool
	s = e.tr.begin("embed.Train", sp)
	embed.Train(seqs, tenc.Len(), ecfg)
	e.tr.end(s, 1)
	pool.Close()
	set("embed.train_s", e.tr.mean("embed.Train", time.Second))
	return out
}

// gateKernels times the LSTM gate kernels on the serving model's
// Phase-2 weights: GateMatVec once per layer per call (the serial
// detect step), GateMatMul on detectBatch rows (the batched one).
func gateKernels(e *env, p *core.Pipeline, parent int, set func(string, float64)) {
	layers := p.Phase2Model().Stack.Layers
	const calls = 20000
	s := e.tr.begin("tensor.GateMatVec", parent)
	for _, l := range layers {
		wx, wh, b := l.Wx.Value, l.Wh.Value, l.B.Value.Data
		x := ramp(wx.Cols)
		h := ramp(wh.Cols)
		dst := make([]float64, wx.Rows)
		for i := 0; i < calls; i++ {
			tensor.GateMatVec(dst, wx, x, wh, h, b)
		}
	}
	e.tr.end(s, int64(calls*len(layers)))
	set("tensor.gate_matvec_ns", e.tr.perOp("tensor.GateMatVec", time.Nanosecond))

	const batchCalls = calls / detectBatch
	s = e.tr.begin("tensor.GateMatMul", parent)
	for _, l := range layers {
		wx, wh, b := l.Wx.Value, l.Wh.Value, l.B.Value.Data
		x := tensor.FromSlice(detectBatch, wx.Cols, ramp(detectBatch*wx.Cols))
		h := tensor.FromSlice(detectBatch, wh.Cols, ramp(detectBatch*wh.Cols))
		z := tensor.New(detectBatch, wx.Rows)
		for i := 0; i < batchCalls; i++ {
			tensor.GateMatMul(z, x, wx, h, wh, b)
		}
	}
	e.tr.end(s, int64(batchCalls*detectBatch*len(layers)))
	set("tensor.gate_matmul_row_ns", e.tr.perOp("tensor.GateMatMul", time.Nanosecond))
}

// ramp returns n deterministic activations in (-1, 1).
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%17)/8.5 - 1 + 1.0/32
	}
	return v
}
