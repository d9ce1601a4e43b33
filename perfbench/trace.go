package main

import (
	"math"
	"regexp"
	"sort"
	"strings"

	"superoffload/internal/obs"
)

// Traced-run accounting. Spans come from the engines' own obs.Tracer
// tracks (trainer, rank, store path, act) plus the benchmark's "bench"
// track, which brackets each timed step and checkpoint. A span's self
// time is its duration minus its direct children on the same track;
// self times are summed per (track kind, span name) over the timed
// loop.

var rankTrack = regexp.MustCompile(`^rank \d+$`)

// trackKind groups tracks: "phase" for the step-phase timelines (the
// single-rank trainer and each R×S×P rank), "path" for flash-store
// worker lanes, "act" for activation stores, and the track name
// otherwise ("mlp", "coordinator", "comm", "bench").
func trackKind(name string) string {
	switch {
	case name == "trainer" || rankTrack.MatchString(name):
		return "phase"
	case strings.HasSuffix(name, "act"):
		return "act"
	case strings.Contains(name, " path "):
		return "path"
	}
	return name
}

type span struct {
	name       string
	start, end float64 // µs since the trace began
}

// traceAccount is the traced loop's per-layer breakdown.
type traceAccount struct {
	self        map[string]float64 // "kind/name" → self time, µs
	instants    map[string]int     // "kind/name" → instant count
	events      int                // program events inside the loop
	steps       int
	stepWall    float64 // Σ timed step durations, µs
	phaseTracks int
	// coverageMin is the smallest share of a timed step's wall time
	// that the phase tracks' spans cover (averaged over phase tracks).
	coverageMin float64
}

func (a traceAccount) selfMs(kind, name string) float64 { return a.self[kind+"/"+name] / 1e3 }

// account builds the breakdown from a tracer's events.
func account(events []obs.Event) traceAccount {
	names := map[int]string{}
	for _, e := range events {
		if e.Ph == "M" {
			names[e.Tid], _ = e.Args["name"].(string)
		}
	}
	byTrack := map[int][]span{}
	// The timed loop runs from the first bench span to the last; the
	// warm-up step before it is excluded.
	var steps []span
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range events {
		if e.Ph != "X" || names[e.Tid] != "bench" {
			continue
		}
		s := span{e.Name, e.Ts, e.Ts + e.Dur}
		if e.Name == "step" {
			steps = append(steps, s)
		}
		lo, hi = min(lo, s.start), max(hi, s.end)
	}
	a := traceAccount{self: map[string]float64{}, instants: map[string]int{}, steps: len(steps)}
	for _, e := range events {
		if e.Ph == "M" || names[e.Tid] == "bench" || e.Ts < lo || e.Ts >= hi {
			continue
		}
		a.events++
		kind := trackKind(names[e.Tid])
		switch e.Ph {
		case "X":
			byTrack[e.Tid] = append(byTrack[e.Tid], span{e.Name, e.Ts, e.Ts + e.Dur})
		case "i":
			a.instants[kind+"/"+e.Name]++
		}
	}
	var phase [][]span
	for tid, spans := range byTrack {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end // a parent before its first child
		})
		kind := trackKind(names[tid])
		for key, us := range selfTimes(spans) {
			a.self[kind+"/"+key] += us
		}
		if kind == "phase" {
			phase = append(phase, spans)
		}
	}
	a.phaseTracks = len(phase)
	a.coverageMin = 1
	for _, st := range steps {
		a.stepWall += st.end - st.start
		var covered float64
		for _, spans := range phase {
			covered += coveredBy(spans, st)
		}
		if c := ratio(covered, float64(len(phase))*(st.end-st.start)); c < a.coverageMin {
			a.coverageMin = c
		}
	}
	if len(steps) == 0 || len(phase) == 0 {
		a.coverageMin = 0
	}
	return a
}

// selfTimes returns each span name's summed self time on one track
// (spans sorted by start, parents first): a span's duration minus the
// durations of the spans directly nested in it.
func selfTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	var stack []span
	for _, s := range spans {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		out[s.name] += s.end - s.start
		if len(stack) > 0 {
			out[stack[len(stack)-1].name] -= s.end - s.start
		}
		stack = append(stack, s)
	}
	return out
}

// coveredBy is the part of the window that the union of one track's
// spans (sorted by start) covers.
func coveredBy(spans []span, win span) float64 {
	var covered, reach float64
	for _, s := range spans {
		lo, hi := max(s.start, win.start, reach), min(s.end, win.end)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return covered
}
