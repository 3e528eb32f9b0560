package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"agilemig/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// traceShape renders everything a migration records on its trace: each
// event's time, kind and detail, then each span's name, parent name,
// start, end, open flag and attributes, in begin order. Floats print in
// their shortest exact form, so any timing drift shows.
func traceShape(tr *trace.Trace) string {
	var b strings.Builder
	ft := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, e := range tr.Events() {
		fmt.Fprintf(&b, "event %s %s %s: %s\n", ft(e.T), e.Kind, e.Actor, e.Detail)
	}
	spans := tr.Spans()
	for _, s := range spans {
		parent := "-"
		if s.Parent != 0 {
			parent = spans[s.Parent-1].Name
		}
		fmt.Fprintf(&b, "span %s parent=%s start=%s end=%s open=%t", s.Name, parent, ft(s.Start), ft(s.End), s.Open)
		for _, a := range s.Attrs {
			if a.IsNum {
				fmt.Fprintf(&b, " %s=%s", a.Key, ft(a.Num))
			} else {
				fmt.Fprintf(&b, " %s=%q", a.Key, a.Str)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "drops events=%d spans=%d\n", tr.Drops(), tr.SpanDrops())
	return b.String()
}

// TestTraceShapeGolden pins the event stream and the span tree of every
// technique's phase chain against a recorded golden: pre-copy through
// several rounds into stop-and-copy, post-copy with demand faults,
// scatter-gather with the gather tail, and a pre-copy rolled back in the
// middle of a round. Rewrite the golden with -update only when a change
// to the recorded shape is intended.
func TestTraceShapeGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, tr *trace.Trace)
	}{
		{"pre-copy rounds", func(t *testing.T, tr *trace.Trace) {
			r := newRig(t, rigOpt{vmBytes: 384 * mib, datasetBytes: 256 * mib, resBytes: 384 * mib,
				busy: true, opsPerSec: 20000, writeFrac: 1})
			m := r.start(PreCopy, Tuning{}, tr)
			r.wait(t, 300)
			if tr.Count(trace.RoundStart) < 1 {
				t.Fatalf("pre-copy converged after %d round(s); the case needs several live rounds", m.Result().Rounds)
			}
		}},
		{"post-copy demand", func(t *testing.T, tr *trace.Trace) {
			r := newRig(t, rigOpt{vmBytes: 256 * mib, datasetBytes: 128 * mib, resBytes: 256 * mib,
				busy: true, opsPerSec: 50, writeFrac: 0.1})
			m := r.start(PostCopy, Tuning{}, tr)
			r.wait(t, 300)
			if m.Result().DemandRequests == 0 {
				t.Fatal("post-copy case raised no demand faults")
			}
		}},
		{"scatter-gather prefetch", func(t *testing.T, tr *trace.Trace) {
			// The reservation holds every touched page, so the gather tail
			// can pull them all back and close its span.
			r := newRig(t, rigOpt{vmBytes: 256 * mib, datasetBytes: 96 * mib, resBytes: 192 * mib, agileSwap: true})
			r.start(ScatterGather, Tuning{GatherPrefetch: true}, tr)
			r.wait(t, 300)
			r.eng.RunSeconds(30)
		}},
		{"pre-copy aborted mid-round", func(t *testing.T, tr *trace.Trace) {
			r := newRig(t, rigOpt{vmBytes: 384 * mib, datasetBytes: 256 * mib, resBytes: 384 * mib,
				busy: true, opsPerSec: 20000, writeFrac: 1})
			m := r.start(PreCopy, Tuning{}, tr)
			for i := 0; i < 4_000_000 && m.round < 2 && !m.Done(); i++ {
				r.eng.Step()
			}
			r.eng.RunSeconds(0.05)
			if m.state != phaseLive || m.round < 2 {
				t.Fatalf("%v: not inside a live round at the abort point", m)
			}
			if !m.Abort() {
				t.Fatal("abort refused")
			}
		}},
	}
	var b strings.Builder
	for _, c := range cases {
		tr := trace.New(1 << 16)
		c.run(t, tr)
		fmt.Fprintf(&b, "== %s\n%s", c.name, traceShape(tr))
	}
	got := b.String()
	path := filepath.Join("testdata", "trace_shape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record the golden with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace shape differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace shape differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
