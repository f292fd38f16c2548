package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"desh/internal/cluster"
	"desh/internal/stream"
)

// fanoutSpec is the router-fanout feed: an in-order, duplicate-free M1
// corpus, as a router would forward a clean syslog stream.
var fanoutSpec = corpusSpec{Profile: "M1", Nodes: 2000, Hours: 24, Failures: 400}

// fanoutWindow is how many lines the producer lets run ahead of
// RouterMetrics.Forwarded: one send queue's worth (the RouterConfig
// default), so no peer queue can fill and no line spills.
const fanoutWindow = 4096

// fanoutPeers is the instance count; each runs one shard.
const fanoutPeers = 2

func fanoutOpts() []stream.Option {
	return []stream.Option{
		stream.WithShards(1),
		stream.WithQuietPeriod(0),
		stream.WithAlertBuffer(1 << 16),
	}
}

// member is one in-process cluster instance behind a loopback server.
type member struct {
	s    *stream.Streamer
	srv  *httptest.Server
	wait func() []received
}

// runRouterFanout drives raw lines through cluster.Router to two
// in-process instances over loopback HTTP. Each round's set-up boots
// both instances (model load, streamer, instance, listener), starts the
// router and pushes ownership; the timed phase is a windowed closed loop
// of IngestLine calls followed by Flush to quiescence.
func runRouterFanout(e *env) (*outcome, error) {
	root := e.tr.begin("router-fanout", -1)
	c, err := genCorpus(fanoutSpec, e.seed)
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
	isAnchor := anchorLines(c)
	due := make([]int64, len(c.lines))
	bufs := make([][]received, fanoutPeers)
	for i := range bufs {
		bufs[i] = make([]received, 0, len(want)+64)
	}
	var sm samples
	var flushMs, closeMs, occupancy []float64
	var posts, forwarded, stateBytes int64
	ingest := &callTimer{tr: e.tr, name: "cluster.Router.IngestLine", parent: root}
	timed := 0.0
	for round := 0; timed < e.seconds; round++ {
		rsp := e.tr.begin("round", root)
		clear(due)
		base := liveHeap()

		// Set-up: boot both instances, start the router, push ownership.
		sw := time.Now()
		members := make([]*member, fanoutPeers)
		peers := make([]cluster.Peer, fanoutPeers)
		for i := range members {
			p, err := loadModel(e, model, rsp)
			if err != nil {
				return nil, err
			}
			s, err := stream.New(p, fanoutOpts()...)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("i%d", i)
			m := &member{s: s, wait: collect(s.Alerts(), bufs[i][:0])}
			m.srv = httptest.NewServer(traceIngest(e.tr, rsp, cluster.NewInstance(name, s, nil).Handler()))
			members[i], peers[i] = m, cluster.Peer{Name: name, URL: m.srv.URL}
		}
		transport := http.DefaultTransport.(*http.Transport).Clone()
		ct := &countingTransport{base: transport, tr: e.tr, parent: rsp}
		r, err := cluster.NewRouter(cluster.RouterConfig{
			Peers:     peers,
			SpillDir:  filepath.Join(e.dir, fmt.Sprintf("spill-%d", round)),
			Transport: ct,
		})
		if err != nil {
			return nil, err
		}
		sm.setup = append(sm.setup, time.Since(sw).Seconds())

		// Timed phase: windowed closed loop, then Flush.
		tsp := e.tr.begin("timed", rsp)
		ingest.parent = tsp
		sm.steal.begin()
		sw = time.Now()
		for i, line := range c.lines {
			for int64(i)-r.Metrics().Forwarded >= fanoutWindow {
				time.Sleep(100 * time.Microsecond)
			}
			var t0 time.Time
			if isAnchor[i] || e.tr.on {
				t0 = time.Now()
				due[i] = t0.UnixNano()
			}
			if err := r.IngestLine(line); err != nil {
				out.failed++
			}
			if e.tr.on {
				ingest.add(t0, time.Now())
			}
		}
		ingest.flush()
		fsp := e.tr.begin("cluster.Router.Flush", tsp)
		fw := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := r.Flush(ctx); err != nil {
			out.problemf("round %d: flush: %v", round, err)
		}
		cancel()
		flushMs = append(flushMs, float64(time.Since(fw).Microseconds())/1e3)
		e.tr.end(fsp, 1)
		el := time.Since(sw)
		sm.steal.end()
		e.tr.end(tsp, int64(len(c.lines)))
		stateBytes = int64(liveHeap()) - int64(base)
		sm.heapMB = append(sm.heapMB, float64(stateBytes)/1e6)

		rm := r.Metrics()
		// Lines the router could not hand over at once are failed
		// operations: they spilled, bounced or exhausted their retries.
		out.failed += rm.Spilled + rm.RejectedLines + rm.ForwardErrors
		if rm.Forwarded != int64(len(c.lines)) {
			out.problemf("round %d: router forwarded %d lines, %d were sent", round, rm.Forwarded, len(c.lines))
		}
		if err := r.Close(); err != nil {
			out.problemf("round %d: router close: %v", round, err)
		}
		var alerts []received
		for _, m := range members {
			csp := e.tr.begin("stream.Close", rsp)
			cw := time.Now()
			if err := m.s.Close(); err != nil {
				out.problemf("round %d: instance close: %v", round, err)
			}
			closeMs = append(closeMs, float64(time.Since(cw).Microseconds())/1e3)
			e.tr.end(csp, 1)
			alerts = append(alerts, m.wait()...)
			sm := m.s.SnapshotMetrics()
			occupancy = append(occupancy, sm.BatchOccupancy)
			if sm.AlertsDropped != 0 {
				out.problemf("round %d: instance dropped %d alerts", round, sm.AlertsDropped)
			}
			m.srv.Close()
		}
		transport.CloseIdleConnections()
		runtime.KeepAlive(members)
		e.tr.end(rsp, int64(len(c.lines)))

		out.attempted += int64(len(c.lines))
		timed += el.Seconds()
		sm.tput = append(sm.tput, float64(len(c.lines))/el.Seconds())
		posts += ct.posts.Load()
		forwarded += rm.Forwarded
		for _, p := range checkBatchEquivalence(alerts, want) {
			out.problemf("round %d: %s", round, p)
		}
		sm.score(alerts, c.run.Failures)
		sm.lat = latencies(alerts, c.anchor, due, sm.lat)
	}
	out.e2e = sm.endToEnd(e.diag)
	if e.tr.on {
		e.tr.end(root, out.attempted)
		out.layers = layerMetrics(e, c, model, trainEv, root)
		out.layers["stream.close_ms"] = metric{median(closeMs), "ms"}
		out.layers["stream.batch_occupancy"] = metric{median(occupancy), "events/wakeup"}
		out.layers["stream.state_bytes_per_node"] = metric{float64(stateBytes) / float64(c.activeNodes()), "B/node"}
		out.layers["cluster.router_ingest_ns"] = metric{e.tr.perOp("cluster.Router.IngestLine", time.Nanosecond), "ns/line"}
		out.layers["cluster.instance_ingest_ns"] = metric{e.tr.perOp("cluster.Instance /ingest", time.Nanosecond), "ns/line"}
		out.layers["cluster.post_ms"] = metric{e.tr.mean("cluster.POST /ingest", time.Millisecond), "ms/POST"}
		if posts > 0 {
			out.layers["cluster.lines_per_post"] = metric{float64(forwarded) / float64(posts), "lines/POST"}
		}
		out.layers["cluster.flush_ms"] = metric{median(flushMs), "ms"}
	}
	return out, nil
}

// countingTransport is the router's RouterConfig.Transport: it counts
// the batch POSTs and, when tracing, times each round trip.
type countingTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int
	posts  atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/ingest" {
		return t.base.RoundTrip(req)
	}
	t.posts.Add(1)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.tr.record("cluster.POST /ingest", t.parent, t0, time.Now(), 1)
	return resp, err
}

// traceIngest wraps an instance's handler: when tracing, each batch
// POST to /ingest is timed as one span covering its lines.
func traceIngest(tr *tracer, parent int, h http.Handler) http.Handler {
	if !tr.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record("cluster.Instance /ingest", parent, t0, time.Now(), int64(bytes.Count(body, []byte("\n"))+1))
	})
}
