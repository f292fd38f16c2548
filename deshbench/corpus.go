package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"desh/internal/catalog"
	"desh/internal/core"
	"desh/internal/logparse"
	"desh/internal/logsim"
)

// corpusSpec sizes one generated test feed. Every field is fixed per
// workload; only the seed varies between runs.
type corpusSpec struct {
	Profile  string
	Nodes    int
	Hours    float64
	Failures int
	// Lateness is the per-node disorder bound: each line's arrival key
	// is its timestamp plus a jitter uniform in [0, Lateness), so no
	// event is overtaken by one more than Lateness newer. 0 = in order.
	Lateness time.Duration
	// DupBatch lines form one delivery batch; every DupEvery-th batch
	// is re-delivered right after itself, as a producer retry would
	// (0 = no duplicates).
	DupBatch, DupEvery int
}

// corpus is one workload's input: the lines in arrival order plus the
// ground truth they were generated from and the batch reference input.
type corpus struct {
	spec corpusSpec
	run  *logsim.Run
	// lines is the feed in arrival order, duplicates included.
	lines []string
	// anchor maps (node, timestamp) of every non-Safe event to the
	// index in lines of its first delivery — the join key of alerts.
	anchor map[anchorKey]int32
	// events is the time-sorted, duplicate-free corpus: the input of the
	// batch reference.
	events []logparse.Event
	// dups counts re-delivered lines; nonSafeDups those among them the
	// dedup ring sees (Safe lines are filtered before it).
	dups, nonSafeDups int
	safe              int // Safe lines among events
}

type anchorKey struct {
	node string
	nano int64
}

func anchorOf(node string, t time.Time) anchorKey { return anchorKey{node, t.UnixNano()} }

// isSafe is the ground-truth label of a generated event's phrase.
func isSafe(key string) bool {
	ph, ok := catalog.Lookup(key)
	return ok && ph.Label == catalog.Safe
}

// genCorpus builds the seeded feed for spec.
func genCorpus(spec corpusSpec, seed int64) (*corpus, error) {
	prof, ok := logsim.ProfileByName(spec.Profile)
	if !ok {
		return nil, fmt.Errorf("unknown logsim profile %q", spec.Profile)
	}
	run, err := logsim.Generate(logsim.Config{Profile: prof, Nodes: spec.Nodes, Hours: spec.Hours, Failures: spec.Failures, Seed: seed})
	if err != nil {
		return nil, err
	}
	c := &corpus{spec: spec, run: run, events: make([]logparse.Event, len(run.Events))}
	raw := make([]string, len(run.Events))
	// The dedup ring and the reorder buffer key events by (node,
	// timestamp[, phrase]); two distinct events sharing one would make
	// the streamed alerts legitimately differ from the batch reference.
	seen := make(map[anchorKey]bool, len(run.Events))
	for i, ge := range run.Events {
		raw[i] = ge.Line()
		ev, err := logparse.ParseLine(raw[i])
		if err != nil {
			return nil, fmt.Errorf("generated line %d does not parse: %v", i, err)
		}
		c.events[i] = ev
		k := anchorOf(ge.Node, ev.Time)
		if seen[k] {
			return nil, fmt.Errorf("seed %d: node %s has two events at %v", seed, ge.Node, ev.Time)
		}
		seen[k] = true
		if isSafe(ge.Key) {
			c.safe++
		}
	}
	order := make([]int, len(raw))
	for i := range order {
		order[i] = i
	}
	if spec.Lateness > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		key := make([]int64, len(raw))
		for i, ev := range c.events {
			key[i] = ev.Time.UnixNano() + rng.Int63n(int64(spec.Lateness))
		}
		sort.SliceStable(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	}
	c.lines = make([]string, 0, len(raw)+len(raw)/max(spec.DupEvery, 1)+spec.DupBatch)
	c.anchor = make(map[anchorKey]int32, len(raw)-c.safe)
	step := spec.DupBatch
	if step <= 0 {
		step = len(order)
	}
	batch := 0
	for lo := 0; lo < len(order); lo += step {
		hi := min(lo+step, len(order))
		for _, i := range order[lo:hi] {
			if !isSafe(run.Events[i].Key) {
				c.anchor[anchorOf(run.Events[i].Node, c.events[i].Time)] = int32(len(c.lines))
			}
			c.lines = append(c.lines, raw[i])
		}
		batch++
		if spec.DupEvery > 0 && batch%spec.DupEvery == 0 {
			for _, i := range order[lo:hi] {
				c.lines = append(c.lines, raw[i])
				c.dups++
				if !isSafe(run.Events[i].Key) {
					c.nonSafeDups++
				}
			}
		}
	}
	// Only the ground-truth failure records are needed from here on;
	// dropping the generated events keeps the benchmark's own heap, which
	// every collection in the timed phase scans, small.
	run.Events = nil
	return c, nil
}

// anchorLines marks the lines that can anchor an alert (first delivery
// of a non-Safe event), the only ones whose send time is stamped.
func anchorLines(c *corpus) []bool {
	is := make([]bool, len(c.lines))
	for _, i := range c.anchor {
		is[i] = true
	}
	return is
}

// activeNodes counts the nodes with at least one non-Safe event — the
// nodes a streamer keeps state for.
func (c *corpus) activeNodes() int {
	nodes := map[string]bool{}
	for k := range c.anchor {
		nodes[k.node] = true
	}
	return max(len(nodes), 1)
}

// describe is the corpus summary printed in each run's diagnostics.
func (c *corpus) describe() map[string]any {
	return map[string]any{
		"profile": c.spec.Profile, "nodes": c.spec.Nodes, "hours": c.spec.Hours,
		"failures": len(c.run.Failures), "lines": len(c.lines), "events": len(c.events),
		"safe_share": round4(float64(c.safe) / float64(len(c.events))),
		"dup_lines":  c.dups, "dup_non_safe": c.nonSafeDups,
	}
}

// trainSpec is the serving model's training corpus: an M1 run from a
// seed no test corpus uses, so training and serving data are disjoint.
var trainSpec = corpusSpec{Profile: "M1", Nodes: 40, Hours: 48, Failures: 40}

const trainSeed = 1 << 40

// trainEvents generates and parses the training corpus.
func trainEvents() ([]logparse.Event, error) {
	c, err := genCorpus(trainSpec, trainSeed)
	if err != nil {
		return nil, fmt.Errorf("training corpus: %w", err)
	}
	return c.events, nil
}

// trainModel trains the Table-5 pipeline (core.DefaultConfig) on the
// training corpus and writes it to path.
func trainModel(e *env, events []logparse.Event, path string, parent int) error {
	p, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	sp := e.tr.begin("core.Train", parent)
	if _, err := p.Train(events); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	e.tr.end(sp, int64(len(events)))
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadModel reads a model file back — the boot step of every serving
// process.
func loadModel(e *env, path string, parent int) (*core.Pipeline, error) {
	sp := e.tr.begin("core.Load", parent)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := core.Load(f)
	e.tr.end(sp, 1)
	return p, err
}

// batchReference is the multiset of flagged verdicts batch Predict
// produces over the sorted, duplicate-free corpus, keyed like alerts.
func batchReference(p *core.Pipeline, events []logparse.Event) (map[string]int, error) {
	verdicts, err := p.Predict(events)
	if err != nil {
		return nil, err
	}
	want := map[string]int{}
	for _, v := range verdicts {
		if v.Flagged {
			want[alertKey(v.Node, v.AnchorTime, v.LeadSeconds)]++
		}
	}
	return want, nil
}

// alertKey identifies one flagged failure: node, flag time and the
// exact lead time bits.
func alertKey(node string, at time.Time, lead float64) string {
	return fmt.Sprintf("%s|%d|%x", node, at.UnixNano(), lead)
}
