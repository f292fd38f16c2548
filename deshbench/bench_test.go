package main

import (
	"math"
	"os"
	"testing"
	"time"

	"desh/internal/logsim"
	"desh/internal/stream"
)

// TestWorkloadsOnTinyCorpus runs each workload end to end, traced, on a
// corpus a few per cent of its benchmark size: every check must pass,
// no operation may fail, and every end-to-end and per-layer metric must
// be reported.
func TestWorkloadsOnTinyCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model per workload")
	}
	defer restoreSpecs(replaySpec, earlySpec, fanoutSpec)
	replaySpec.Nodes, replaySpec.Failures = 300, 60
	earlySpec.Nodes, earlySpec.Failures = 150, 60
	fanoutSpec.Nodes, fanoutSpec.Failures = 300, 60
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			dir, err := os.MkdirTemp("", "deshbench-")
			if err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(dir)
			e := &env{seed: 3, seconds: 1e-3, tr: newTracer(true), dir: dir, diag: map[string]any{}}
			out, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range out.problems {
				t.Errorf("check failed: %s", p)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for _, m := range []string{"throughput_lps", "alert_latency_p50_ms", "setup_s",
				"heap_live_mb", "recall", "precision", "lead_time_mean_s"} {
				if v, ok := out.e2e[m]; !ok || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
				}
			}
			for m := range layerUnits {
				if _, ok := out.layers[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(out.layers) != len(layerUnits) {
				t.Errorf("%d per-layer metrics, want %d", len(out.layers), len(layerUnits))
			}
		})
	}
}

func restoreSpecs(r, e, f corpusSpec) { replaySpec, earlySpec, fanoutSpec = r, e, f }

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// closedAlerts is a small batch-reference-shaped alert set.
func closedAlerts() []received {
	return []received{
		{Alert: stream.Alert{Node: "c0-0c0s0n1", FlaggedAt: t0.Add(time.Hour), LeadSeconds: 95.5}},
		{Alert: stream.Alert{Node: "c0-0c0s0n2", FlaggedAt: t0.Add(2 * time.Hour), LeadSeconds: 40.25}},
		{Alert: stream.Alert{Node: "c0-0c0s0n1", FlaggedAt: t0.Add(5 * time.Hour), LeadSeconds: 120}},
	}
}

func multiset(alerts []received) map[string]int {
	m := map[string]int{}
	for _, a := range alerts {
		m[alertKey(a.Node, a.FlaggedAt, a.LeadSeconds)]++
	}
	return m
}

// TestBatchEquivalenceCheckRejectsPerturbations: the replay-durable and
// router-fanout check accepts the reference itself and rejects one alert
// removed, one lead time shifted by one ulp, and one duplicate let
// through.
func TestBatchEquivalenceCheckRejectsPerturbations(t *testing.T) {
	want := multiset(closedAlerts())
	if p := checkBatchEquivalence(closedAlerts(), want); len(p) != 0 {
		t.Fatalf("reference rejected: %v", p)
	}
	perturbed := map[string]func([]received) []received{
		"one alert removed": func(a []received) []received { return a[1:] },
		"one lead shifted": func(a []received) []received {
			a[1].LeadSeconds = math.Nextafter(a[1].LeadSeconds, math.Inf(1))
			return a
		},
		"one duplicate let through": func(a []received) []received { return append(a, a[2]) },
		"one provisional alert":     func(a []received) []received { a[0].Provisional = true; return a },
	}
	for name, perturb := range perturbed {
		if p := checkBatchEquivalence(perturb(closedAlerts()), want); len(p) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
}

// earlyCase is two failures, each warned once ahead of time, with the
// lines that carried the warnings.
func earlyCase() ([]received, map[anchorKey]int32, []logsim.FailureRecord) {
	alerts := []received{
		{Alert: stream.Alert{Node: "c0-0c0s0n1", FlaggedAt: t0.Add(time.Hour), LeadSeconds: 30, Provisional: true}},
		{Alert: stream.Alert{Node: "c0-0c0s0n2", FlaggedAt: t0.Add(2 * time.Hour), LeadSeconds: 45, Provisional: true}},
	}
	anchor := map[anchorKey]int32{}
	for i, a := range alerts {
		anchor[anchorOf(a.Node, a.FlaggedAt)] = int32(i)
	}
	failures := []logsim.FailureRecord{
		{Node: "c0-0c0s0n1", Start: t0.Add(time.Hour - time.Minute), FailTime: t0.Add(time.Hour + 40*time.Second)},
		{Node: "c0-0c0s0n2", Start: t0.Add(2*time.Hour - time.Minute), FailTime: t0.Add(2*time.Hour + time.Minute)},
	}
	return alerts, anchor, failures
}

// TestEarlyWarnCheckRejectsPerturbations: the early-warn check accepts
// a clean warning set and rejects a flag time shifted off its line, a
// non-positive lead, a duplicate inside the quiet period, and — through
// the recall floor — one warning removed.
func TestEarlyWarnCheckRejectsPerturbations(t *testing.T) {
	alerts, anchor, failures := earlyCase()
	if p := checkEarlyWarn(alerts, anchor, earlyQuiet); len(p) != 0 {
		t.Fatalf("clean warnings rejected: %v", p)
	}
	if p := qualityProblems(quality(alerts, failures)); len(p) != 0 {
		t.Fatalf("clean warnings below the quality floors: %v", p)
	}
	perturbed := map[string]func([]received) []received{
		"flag time shifted": func(a []received) []received { a[0].FlaggedAt = a[0].FlaggedAt.Add(time.Microsecond); return a },
		"lead not positive": func(a []received) []received { a[1].LeadSeconds = 0; return a },
		"one duplicate let through": func(a []received) []received {
			d := a[0]
			d.FlaggedAt = d.FlaggedAt.Add(time.Second)
			anchor[anchorOf(d.Node, d.FlaggedAt)] = 9
			return append(a, d)
		},
	}
	for name, perturb := range perturbed {
		a, _, _ := earlyCase()
		if p := checkEarlyWarn(perturb(a), anchor, earlyQuiet); len(p) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
	if p := qualityProblems(quality(alerts[1:], failures)); len(p) == 0 {
		t.Error("one warning removed: quality floors passed")
	}
}

// TestQualityScoring pins the ground-truth scoring of both alert kinds:
// a provisional alert flags at FlaggedAt, a closed-chain alert at
// FlaggedAt minus its lead.
func TestQualityScoring(t *testing.T) {
	alerts, _, failures := earlyCase()
	closed := received{Alert: stream.Alert{Node: "c0-0c0s0n2", FlaggedAt: failures[1].FailTime, LeadSeconds: 90}}
	stray := received{Alert: stream.Alert{Node: "c0-0c0s0n3", FlaggedAt: t0, Provisional: true, LeadSeconds: 1}}
	recall, precision, lead := quality([]received{alerts[0], closed, stray}, failures)
	if recall != 1 || precision != 2.0/3 || lead != (40+90)/2.0 {
		t.Fatalf("recall %v precision %v lead %v, want 1, 2/3, 65", recall, precision, lead)
	}
}
