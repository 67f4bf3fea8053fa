package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the layer's public function.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans and counts of one traced run in memory; they
// are written out once, when the run ends. It is safe for concurrent
// use (the open-loop serve phase records from two sender goroutines).
type tracer struct {
	run string
	t0  time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	// excluded are [from, to) intervals (ns since t0) whose spans
	// durations leaves out: the warm-up rounds.
	excluded [][2]int64
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), counts: map[string]float64{}}
}

// now is the time since the run started, in the spans' clock.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// exclude leaves every span that starts in [from, to) out of durations.
// The spans stay in the trace file.
func (t *tracer) exclude(from, to int64) {
	t.mu.Lock()
	t.excluded = append(t.excluded, [2]int64{from, to})
	t.mu.Unlock()
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// durations returns the length of every closed span called name that
// does not start in an excluded interval, in milliseconds, in the order
// they were opened.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
spans:
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		for _, x := range t.excluded {
			if s.Start >= x[0] && s.Start < x[1] {
				continue spans
			}
		}
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// selfTimes returns, per span name, the summed self time in
// milliseconds: each span's length minus the part of its interval
// covered by its children. Children may overlap one another (calls made
// from concurrent goroutines), so the covered part is the length of the
// union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < 0 {
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write stores the run's spans, counts and self times as one JSON file
// under dir.
func (t *tracer) write(dir string, env environment) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".json")
	b, err := json.Marshal(struct {
		Run    string             `json:"run"`
		Env    environment        `json:"env"`
		SelfMS map[string]float64 `json:"self_ms"`
		Counts map[string]float64 `json:"counts"`
		Spans  []span             `json:"spans"`
	}{t.run, env, selfTimes(t.spans), t.counts, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
