package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	tr := New(16)
	em := tr.SpanEmitter(ScopeVM, "vm0")
	root := em.Begin(1.0, "migration", 0, Str("technique", "agile"))
	round := em.Begin(1.0, "round", root, Num("round", 0))
	batch := em.Begin(1.2, "batch", round, Num("pages", 32))
	em.End(1.5, batch)
	em.End(2.0, round, Num("dirty", 10))
	em.End(3.0, root)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != root || spans[2].Parent != round {
		t.Fatalf("parent chain wrong: %+v", spans)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d after ending all", tr.OpenSpans())
	}
	if got := spans[1].Seconds(); got != 1.0 {
		t.Fatalf("round duration = %v, want 1.0", got)
	}
	if a, ok := spans[0].Attr("technique"); !ok || a.Str != "agile" {
		t.Fatalf("technique attr = %+v %v", a, ok)
	}
	if spans[1].NumAttr("dirty") != 10 {
		t.Fatal("End attrs not merged")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := New(8)
	em := tr.SpanEmitter(ScopeVM, "vm0")
	id := em.Begin(1.0, "s", 0)
	em.End(2.0, id)
	em.End(5.0, id, Num("late", 1)) // must not move End or re-count
	sp := tr.Spans()[0]
	if sp.End != 2.0 || sp.Open {
		t.Fatalf("double End changed the span: %+v", sp)
	}
	if _, ok := sp.Attr("late"); ok {
		t.Fatal("second End applied attributes")
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d", tr.OpenSpans())
	}
}

func TestSpanSetAttrReplacesByKey(t *testing.T) {
	tr := New(8)
	em := tr.SpanEmitter(ScopeVM, "vm0")
	id := em.Begin(1.0, "demand", 0, Num("retries", 0))
	em.SetAttr(id, Num("retries", 1))
	em.SetAttr(id, Num("retries", 2))
	sp := tr.Spans()[0]
	if sp.NumAttr("retries") != 2 || len(sp.Attrs) != 1 {
		t.Fatalf("SetAttr did not replace: %+v", sp.Attrs)
	}
}

func TestSpanStoreDropsNewest(t *testing.T) {
	tr := New(2)
	em := tr.SpanEmitter(ScopeVM, "vm0")
	a := em.Begin(1.0, "root", 0)
	b := em.Begin(1.1, "child", a)
	c := em.Begin(1.2, "late", b) // store full: refused
	if a == 0 || b == 0 {
		t.Fatal("early spans refused")
	}
	if c != 0 {
		t.Fatalf("Begin past the cap returned %d, want 0", c)
	}
	if tr.SpanDrops() != 1 {
		t.Fatalf("SpanDrops = %d, want 1", tr.SpanDrops())
	}
	// The early, structural spans survive — drop-newest, unlike the ring.
	if got := tr.Spans(); len(got) != 2 || got[0].Name != "root" {
		t.Fatalf("kept %+v", got)
	}
	em.End(2.0, c) // id 0: no-op
	em.End(2.0, a)
	if tr.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1 (child still open)", tr.OpenSpans())
	}
}

func TestNilSpanEmitterSafe(t *testing.T) {
	var tr *Trace
	em := tr.SpanEmitter(ScopeVM, "vm0")
	if em.Enabled() {
		t.Fatal("nil emitter claims enabled")
	}
	id := em.Begin(1.0, "s", 0, Num("k", 1))
	if id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	em.End(2.0, id)
	em.SetAttr(id, Str("k", "v")) // must not panic
	if tr.Spans() != nil || tr.SpanDrops() != 0 || tr.OpenSpans() != 0 || tr.SpanCap() != 0 {
		t.Fatal("nil trace span accessors not inert")
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := New(16)
	em := tr.SpanEmitter(ScopeVM, "vm0")
	root := em.Begin(1.0, "migration", 0, Str("technique", "agile"), Num("pages", 100))
	child := em.Begin(1.5, "round", root, Num("round", 0))
	em.End(2.5, child)
	em.End(3.0, root)
	em.Begin(3.5, "orphaned-open", 0) // left open on purpose
	tr.Emitter(ScopeCluster, "").Emitf(0.5, MigrationStart, "ev")

	var b bytes.Buffer
	if err := WriteJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	spans, sum, err := ReadSpansJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("%d spans read, want 3", len(spans))
	}
	if sum.Events != 1 || sum.Spans != 3 || sum.OpenSpans != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	got := spans[0]
	if got.ID != SpanID(root) || got.Name != "migration" || got.Scope != ScopeVM ||
		got.Actor != "vm0" || got.Start != 1.0 || got.End != 3.0 || got.Open {
		t.Fatalf("root span mangled: %+v", got)
	}
	if a, ok := got.Attr("technique"); !ok || a.Str != "agile" {
		t.Fatalf("string attr lost: %+v", got.Attrs)
	}
	if got.NumAttr("pages") != 100 {
		t.Fatalf("numeric attr lost: %+v", got.Attrs)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatal("parent link lost in round trip")
	}
	if !spans[2].Open {
		t.Fatal("open flag lost in round trip")
	}
}

func TestSpanJSONLOmittedWhenAbsent(t *testing.T) {
	// A span-free trace must serialize byte-identically to the pre-span
	// format: no span lines, no span fields in the summary.
	tr := New(8)
	tr.Emitter(ScopeCluster, "").Emitf(1.0, Suspend, "x")
	var b bytes.Buffer
	if err := WriteJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "span") {
		t.Fatalf("span artifacts in span-free JSONL:\n%s", b.String())
	}
}

func TestChromeTraceSpanEvents(t *testing.T) {
	tr := New(8)
	em := tr.SpanEmitter(ScopeVM, "vm0")
	root := em.Begin(1.0, "migration", 0)
	child := em.Begin(1.2, "round", root)
	em.End(2.0, child)
	em.End(3.0, root)
	em.Begin(3.5, "still-open", 0)

	var b bytes.Buffer
	if err := WriteChromeTrace(&b, tr); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Completed spans appear as async begin/end pairs; open ones don't.
	if got := strings.Count(out, `"ph":"b"`); got != 2 {
		t.Fatalf("%d async-begin events, want 2:\n%s", got, out)
	}
	if got := strings.Count(out, `"ph":"e"`); got != 2 {
		t.Fatalf("%d async-end events, want 2", got)
	}
	if strings.Contains(out, "still-open") {
		t.Fatal("open span exported")
	}
}
