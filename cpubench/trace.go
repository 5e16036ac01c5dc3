package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the program's public functions. Spans of one op share Op;
// Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Cell names the campaign cell ("compress/ipa") the span belongs to.
	Cell string `json:"cell,omitempty"`
	// CPU0/CPU1 are process CPU time at start and end; Wall0/Wall1 are
	// wall time since the tracer started. All in nanoseconds.
	CPU0  int64 `json:"cpu0"`
	CPU1  int64 `json:"cpu1"`
	Wall0 int64 `json:"wall0"`
	Wall1 int64 `json:"wall1"`
}

func (s span) cpu() time.Duration  { return time.Duration(s.CPU1 - s.CPU0) }
func (s span) wall() time.Duration { return time.Duration(s.Wall1 - s.Wall0) }

// tracer keeps spans in memory for the length of a traced run; they are
// written out once, when the run ends. It is used from one goroutine at a
// time: the harness runs with Parallelism 1 and the benchmark's own code
// is sequential.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (its index in spans, plus one).
// A nil tracer records nothing and returns 0.
func (t *tracer) start(name, cell string, op, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Cell: cell,
		CPU0: int64(processCPU()), Wall0: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.CPU1 = int64(processCPU())
	s.Wall1 = int64(time.Since(t.epoch))
}

// selfCPU returns each span's self time, indexed like spans: its CPU
// duration minus the part of that interval its children's intervals
// cover. Overlapping children are counted once, and a child reaching
// outside its parent counts only inside it.
func selfCPU(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].CPU0 < kids[b].CPU0 })
		var covered, reach int64 = 0, s.CPU0
		for _, k := range kids {
			lo, hi := max(k.CPU0, reach), min(k.CPU1, s.CPU1)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.cpu() - time.Duration(covered)
	}
	return self
}

// write dumps the spans as JSON lines, one span per line, each with its
// self time added.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfCPU(t.spans)
	for i, s := range t.spans {
		rec := struct {
			span
			SelfCPU int64 `json:"selfCPU"`
		}{s, int64(self[i])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
