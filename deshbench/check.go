package main

import (
	"fmt"
	"sort"
	"time"

	"desh/internal/logsim"
	"desh/internal/stream"
)

// received is one alert as the subscriber saw it, stamped on arrival.
type received struct {
	stream.Alert
	at time.Time
}

// maxReported caps how many individual mismatches one check lists.
const maxReported = 5

// checkBatchEquivalence compares the streamed closed-chain alerts with
// the batch reference multiset: every flagged verdict exactly once, no
// provisional alert, nothing else.
func checkBatchEquivalence(alerts []received, want map[string]int) []string {
	var problems []string
	got := make(map[string]int, len(alerts))
	for _, a := range alerts {
		if a.Provisional {
			problems = append(problems, fmt.Sprintf("provisional alert on %s with early detection off", a.Node))
			continue
		}
		got[alertKey(a.Node, a.FlaggedAt, a.LeadSeconds)]++
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got[k] != want[k] {
			bad++
			if bad <= maxReported {
				problems = append(problems, fmt.Sprintf("alert %s delivered %d times, batch reference flags it %d times", k, got[k], want[k]))
			}
		}
	}
	if bad > maxReported {
		problems = append(problems, fmt.Sprintf("%d more alert mismatches", bad-maxReported))
	}
	return problems
}

// checkEarlyWarn checks the early-warning stream: every provisional
// alert joins to a line actually sent and carries a positive lead, and
// no node alerts twice within the quiet period (alerts of one node
// arrive in emission order, since one shard owns the node).
func checkEarlyWarn(alerts []received, anchor map[anchorKey]int32, quiet time.Duration) []string {
	var problems []string
	last := map[string]time.Time{}
	bad := 0
	note := func(format string, args ...any) {
		bad++
		if bad <= maxReported {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	provisional := 0
	for _, a := range alerts {
		if a.Provisional {
			provisional++
			if _, ok := anchor[anchorOf(a.Node, a.FlaggedAt)]; !ok {
				note("provisional alert on %s at %v joins no line sent", a.Node, a.FlaggedAt)
			}
			if !(a.LeadSeconds > 0) {
				note("provisional alert on %s at %v has lead %v s", a.Node, a.FlaggedAt, a.LeadSeconds)
			}
		}
		if prev, ok := last[a.Node]; ok && a.FlaggedAt.Sub(prev) < quiet {
			note("node %s alerted at %v and again at %v, inside the %v quiet period", a.Node, prev, a.FlaggedAt, quiet)
		}
		last[a.Node] = a.FlaggedAt
	}
	if bad > maxReported {
		problems = append(problems, fmt.Sprintf("%d more early-warning violations", bad-maxReported))
	}
	if provisional == 0 {
		problems = append(problems, "no provisional alert fired")
	}
	return problems
}

// quality scores alerts against logsim's ground truth. An alert's flag
// point is the log time the failure was called: FlaggedAt for a
// provisional alert, and FlaggedAt−LeadSeconds for a closed-chain alert
// (whose FlaggedAt is the chain's anchor). An alert is a true positive
// when its flag point falls inside a failure chain on its node,
// [Start, FailTime]; the lead of a true positive is FailTime minus the
// flag point. Recall counts failures with at least one true positive.
func quality(alerts []received, failures []logsim.FailureRecord) (recall, precision, leadMean float64) {
	byNode := map[string][]int{}
	for i, f := range failures {
		byNode[f.Node] = append(byNode[f.Node], i)
	}
	hit := make([]bool, len(failures))
	tp := 0
	var leadSum float64
	for _, a := range alerts {
		flag := a.FlaggedAt
		if !a.Provisional {
			flag = flag.Add(-time.Duration(a.LeadSeconds * float64(time.Second)))
		}
		for _, i := range byNode[a.Node] {
			f := failures[i]
			if !flag.Before(f.Start) && !flag.After(f.FailTime) {
				hit[i] = true
				tp++
				leadSum += f.FailTime.Sub(flag).Seconds()
				break
			}
		}
	}
	found := 0
	for _, h := range hit {
		if h {
			found++
		}
	}
	if len(failures) > 0 {
		recall = float64(found) / float64(len(failures))
	}
	if len(alerts) > 0 {
		precision = float64(tp) / float64(len(alerts))
	}
	if tp > 0 {
		leadMean = leadSum / float64(tp)
	}
	return recall, precision, leadMean
}

// qualityProblems holds early warnings to the ground-truth floors.
func qualityProblems(recall, precision, _ float64) []string {
	if recall < minRecall || precision < minPrecision {
		return []string{fmt.Sprintf("early-warning recall %.3f, precision %.3f, below the %.2f/%.2f floors",
			recall, precision, minRecall, minPrecision)}
	}
	return nil
}

// latencies joins each alert to the line that carried its (node,
// FlaggedAt) and returns arrival minus that line's due time, in ms.
// due holds, per line index, the wall time the line was due to be sent
// (0 = not sent in a timed phase, skipped). Closed-chain alerts join
// through their anchor, the chain's last line.
func latencies(alerts []received, anchor map[anchorKey]int32, due []int64, dst []float64) []float64 {
	for _, a := range alerts {
		i, ok := anchor[anchorOf(a.Node, a.FlaggedAt)]
		if !ok || due[i] == 0 {
			continue
		}
		dst = append(dst, float64(a.at.UnixNano()-due[i])/1e6)
	}
	return dst
}

// collect drains a streamer's alert channel until it closes, stamping
// each alert on arrival, into buf (pre-sized by the caller so the
// collector does not allocate during the timed phase).
func collect(ch <-chan stream.Alert, buf []received) func() []received {
	done := make(chan []received, 1)
	go func() {
		for a := range ch {
			buf = append(buf, received{Alert: a, at: time.Now()})
		}
		done <- buf
	}()
	return func() []received { return <-done }
}
