package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around its calls into each
// layer's public functions; nothing inside the program is instrumented.
// A span's self time is its duration minus the part its child spans
// cover. Spans of one job (a program's pipeline, or one request) share
// a row name, so per-program ledger rows fall out of the same records.
type span struct {
	name   string
	row    string
	parent int // index into tracer.spans, -1 for a root
	start  time.Time
	dur    time.Duration
	child  time.Duration // summed durations of direct children
}

// tracer keeps spans in memory until the run ends. One tracer serves
// one goroutine; concurrent clients each get their own.
type tracer struct {
	spans []span
	stack []int
	row   string
}

// begin opens a span and returns the function that closes it. On a nil
// tracer both are no-ops, so the untraced path runs the same code.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, row: t.row, parent: parent, start: time.Now()})
	t.stack = append(t.stack, i)
	return func() {
		s := &t.spans[i]
		s.dur = time.Since(s.start)
		t.stack = t.stack[:len(t.stack)-1]
		if s.parent >= 0 {
			t.spans[s.parent].child += s.dur
		}
	}
}

// setRow names the job the following spans belong to.
func (t *tracer) setRow(row string) {
	if t != nil {
		t.row = row
	}
}

// self sums the self time of every span with the given name, over all
// rows when row is empty.
func (t *tracer) self(name, row string) time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name && (row == "" || s.row == row) {
			d += s.dur - s.child
		}
	}
	return d
}

// selfs lists the self times in ms of every span with the given name.
func (t *tracer) selfs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.dur-s.child))
		}
	}
	return out
}

// merge appends another tracer's spans (re-basing parent indices).
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// writeSelfTable prints each span name's count, total and self time.
func (t *tracer) writeSelfTable(w io.Writer) {
	type agg struct {
		n          int
		total, own time.Duration
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.dur
		a.own += s.dur - s.child
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "  %-22s %8d %12.3f %12.3f\n", n, a.n, ms(a.total), ms(a.own))
	}
}
