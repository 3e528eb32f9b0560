package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/trace"
	"agilemig/internal/workload"
)

// span is a test-builder shorthand.
func mkSpan(id, parent trace.SpanID, name string, start, end float64, attrs ...trace.Attr) trace.Span {
	return trace.Span{ID: id, Parent: parent, Name: name, Scope: trace.ScopeVM,
		Actor: "vm0", Start: start, End: end, Attrs: attrs}
}

func TestCriticalPathTilesWindow(t *testing.T) {
	// migration [0,10] with round [0,6] (containing batch [1,3]),
	// stopped [6,7] (containing cpu-state [6.2,6.8]), residual [7,9].
	spans := []trace.Span{
		mkSpan(1, 0, "migration", 0, 10, trace.Str("technique", "agile")),
		mkSpan(2, 1, "round", 0, 6),
		mkSpan(3, 2, "batch", 1, 3),
		mkSpan(4, 1, "stopped", 6, 7),
		mkSpan(5, 4, "cpu-state", 6.2, 6.8),
		mkSpan(6, 1, "residual", 7, 9),
	}
	a := AnalyzeSpans(spans)
	if len(a.Migrations) != 1 {
		t.Fatalf("%d migrations", len(a.Migrations))
	}
	m := a.Migrations[0]
	if m.Technique != "agile" || m.TotalSeconds != 10 {
		t.Fatalf("header wrong: %+v", m)
	}
	// The path must tile [0,10] exactly: contiguous, no overlap, no gaps.
	cur := m.Start
	var sum float64
	for i, seg := range m.CriticalPath {
		if seg.Start != cur {
			t.Fatalf("segment %d starts at %v, previous ended at %v\n%+v", i, seg.Start, cur, m.CriticalPath)
		}
		if seg.End < seg.Start {
			t.Fatalf("segment %d runs backward: %+v", i, seg)
		}
		cur = seg.End
		sum += seg.Seconds()
	}
	if cur != m.End {
		t.Fatalf("path ends at %v, migration at %v", cur, m.End)
	}
	if math.Abs(sum-m.TotalSeconds) > 1e-9 {
		t.Fatalf("segments sum to %v, migration lasted %v", sum, m.TotalSeconds)
	}
	// Expected drill-down: round→batch→round, stopped→cpu-state→stopped,
	// residual, then the root's own tail [9,10].
	wantNames := []string{"round", "batch", "round", "stopped", "cpu-state", "stopped", "residual", "migration"}
	if len(m.CriticalPath) != len(wantNames) {
		t.Fatalf("%d segments, want %d: %+v", len(m.CriticalPath), len(wantNames), m.CriticalPath)
	}
	for i, seg := range m.CriticalPath {
		if seg.Name != wantNames[i] {
			t.Fatalf("segment %d = %q, want %q", i, seg.Name, wantNames[i])
		}
	}
	if m.DowntimeSeconds != 1 {
		t.Fatalf("DowntimeSeconds = %v", m.DowntimeSeconds)
	}
	if math.Abs(m.CriticalDowntimeSeconds-m.DowntimeSeconds) > 1e-9 {
		t.Fatalf("critical downtime %v != stopped duration %v", m.CriticalDowntimeSeconds, m.DowntimeSeconds)
	}
	// Attribution: cpu-state overlaps the whole of [6.2,6.8].
	if len(m.DowntimeBySpan) != 1 || m.DowntimeBySpan[0].Name != "cpu-state" ||
		math.Abs(m.DowntimeBySpan[0].Seconds-0.6) > 1e-9 {
		t.Fatalf("attribution = %+v", m.DowntimeBySpan)
	}
}

func TestAnalyzeOrphanAndOpenSpans(t *testing.T) {
	spans := []trace.Span{
		mkSpan(1, 0, "migration", 0, 10),
		mkSpan(2, 99, "lost-child", 1, 2), // parent never recorded
		{ID: 3, Parent: 1, Name: "hung", Scope: trace.ScopeVM, Actor: "vm0",
			Start: 4, End: 4, Open: true}, // never ended
	}
	a := AnalyzeSpans(spans)
	if a.Orphans != 1 {
		t.Fatalf("Orphans = %d", a.Orphans)
	}
	if a.OpenSpans != 1 {
		t.Fatalf("OpenSpans = %d", a.OpenSpans)
	}
	// The open child is excluded from the critical path: the whole window
	// is the root's own time.
	m := a.Migrations[0]
	if len(m.CriticalPath) != 1 || m.CriticalPath[0].Name != "migration" {
		t.Fatalf("open span entered the critical path: %+v", m.CriticalPath)
	}
}

func TestAnalyzeWastedWork(t *testing.T) {
	spans := []trace.Span{
		mkSpan(1, 0, "migration", 0, 10),
		mkSpan(2, 1, "demand-fault", 1, 1.1, trace.Num("retries", 2)),
		mkSpan(3, 1, "demand-fault", 2, 2.05),
		{ID: 4, Name: "prefetch-window", Scope: trace.ScopeDevice, Actor: "vmd:vm0",
			Start: 3, End: 4, Attrs: []trace.Attr{trace.Num("issued", 8), trace.Num("staged", 5)}},
		{ID: 5, Name: "prefetch-window", Scope: trace.ScopeDevice, Actor: "vmd:vm0",
			Start: 5, End: 6, Attrs: []trace.Attr{trace.Num("issued", 4), trace.Num("staged", 4)}},
		{ID: 6, Name: "vmd-read", Scope: trace.ScopeDevice, Actor: "vmd:other",
			Start: 1, End: 2}, // another VM's device: not ours
	}
	a := AnalyzeSpans(spans)
	m := a.Migrations[0]
	if m.DemandFaults != 2 || m.RetriedFaults != 1 {
		t.Fatalf("faults=%d retried=%d", m.DemandFaults, m.RetriedFaults)
	}
	if math.Abs(m.RetriedFaultSeconds-0.1) > 1e-9 {
		t.Fatalf("RetriedFaultSeconds = %v", m.RetriedFaultSeconds)
	}
	if m.PrefetchWindows != 2 || m.RefutedWindows != 1 || m.RefutedPages != 3 {
		t.Fatalf("windows=%d refuted=%d pages=%d", m.PrefetchWindows, m.RefutedWindows, m.RefutedPages)
	}
	if m.DeviceReads != 0 {
		t.Fatal("another namespace's reads were attributed")
	}
}

// TestAnalyzeDowntimeMatchesResult is the acceptance check: a real traced
// migration's span log, analyzed, must report a critical path whose
// in-stop-window portion equals the migration's reported downtime.
func TestAnalyzeDowntimeMatchesResult(t *testing.T) {
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile, core.ScatterGather} {
		tr := trace.New(1 << 18)
		cfg := cluster.DefaultConfig()
		cfg.HostRAMBytes = 300 * 1 << 20
		cfg.IntermediateRAMBytes = 200 * 1 << 20
		cfg.Trace = tr
		tb := cluster.New(cfg)
		h := tb.DeployVM("vm0", 100*1<<20, 38*1<<20, true)
		h.LoadDataset(76 * 1 << 20)
		wcfg := workload.YCSB()
		wcfg.MaxOpsPerSecond = 5000
		h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
		tb.RunSeconds(6)
		if _, err := tb.Migrate(h, tech, tb.Dest, 26*1<<20, core.Tuning{}); err != nil {
			t.Fatal(err)
		}
		if tb.RunUntilMigrated(h, 4000) != cluster.OutcomeCompleted {
			t.Fatalf("%v: migration did not finish", tech)
		}
		tb.RunSeconds(3)

		a := AnalyzeSpans(tr.Spans())
		if len(a.Migrations) != 1 {
			t.Fatalf("%v: %d migrations analyzed", tech, len(a.Migrations))
		}
		m := a.Migrations[0]
		if math.Abs(m.DowntimeSeconds-h.Result.DowntimeSeconds) > 1e-6 {
			t.Errorf("%v: stopped span %.6fs, Result.DowntimeSeconds %.6fs",
				tech, m.DowntimeSeconds, h.Result.DowntimeSeconds)
		}
		if math.Abs(m.CriticalDowntimeSeconds-h.Result.DowntimeSeconds) > 1e-6 {
			t.Errorf("%v: critical path holds %.6fs of the stop window, downtime is %.6fs",
				tech, m.CriticalDowntimeSeconds, h.Result.DowntimeSeconds)
		}
		var sum float64
		for _, seg := range m.CriticalPath {
			sum += seg.Seconds()
		}
		if math.Abs(sum-m.TotalSeconds) > 1e-6 {
			t.Errorf("%v: critical path sums to %.6fs, migration lasted %.6fs", tech, sum, m.TotalSeconds)
		}
		// Device reads may legitimately be in flight at the cutoff (the
		// workload keeps demand-paging after migration), but every span of
		// the migration's own tree must have closed.
		for _, sp := range tr.Spans() {
			if sp.Open && sp.Scope != trace.ScopeDevice {
				t.Errorf("%v: span %q (id %d) left open after completion", tech, sp.Name, sp.ID)
			}
		}

		// The render and CSV writers must handle a real analysis.
		var out, csv bytes.Buffer
		RenderSpanAnalysis(&out, a)
		if !strings.Contains(out.String(), "Migration span analysis") {
			t.Errorf("%v: render missing header", tech)
		}
		WriteSpanAnalysisCSV(&csv, a)
		if !strings.Contains(csv.String(), "critical-downtime") {
			t.Errorf("%v: CSV missing summary rows", tech)
		}
	}
}
