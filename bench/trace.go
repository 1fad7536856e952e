package main

import "time"

// span is one timed call, recorded by the benchmark around a call into a
// layer's public function. Parent is an index into the tracer's span list
// (-1 for a root); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the timed ops run; it is used from the one
// client goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // index of the innermost open span, -1 at top level
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// begin opens a span under the innermost open one and returns its index.
// A root span starts a new op.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	if t.open < 0 {
		t.op++
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Op: t.op,
		StartNS: time.Since(t.epoch).Nanoseconds()})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if id != t.open {
		panic("bench: spans must close innermost first")
	}
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
	t.open = t.spans[id].Parent
}

// selfMS returns every span's self time: its duration minus the part its
// direct children cover (children of one parent never overlap here, the
// client being one goroutine).
func selfMS(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}
