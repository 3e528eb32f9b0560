package cluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// testFleetConfig shrinks the default fleet so a full evacuation runs in
// well under a second of wall time.
func testFleetConfig(cells, shards int) FleetConfig {
	cfg := DefaultFleetConfig()
	cfg.Cells = cells
	cfg.Shards = shards
	cfg.HostRAMBytes = 64 * MiB
	cfg.IntermediateRAMBytes = 64 * MiB
	cfg.VMMemBytes = 16 * MiB
	cfg.DatasetBytes = 12 * MiB
	cfg.ReservationBytes = 6 * MiB
	cfg.WarmupSeconds = 5
	cfg.StaggerSeconds = 0.1
	cfg.SettleSeconds = 1
	cfg.MaxOpsPerSecond = 1000
	return cfg
}

func TestFleetEvacuationCompletes(t *testing.T) {
	f := NewFleet(testFleetConfig(4, 2))
	if res := f.RunEvacuation(600); !res.Success() {
		t.Fatalf("evacuation incomplete: %s", res)
	}
	for _, r := range f.Rows() {
		if r.TotalSeconds <= 0 || r.DowntimeSeconds <= 0 {
			t.Fatalf("cell %s has empty result: %+v", r.Cell, r)
		}
		if r.DoneAtSeconds <= r.StartedAtSeconds {
			t.Fatalf("cell %s finished before it started: %+v", r.Cell, r)
		}
		if r.OpsAtComplete <= 0 || r.BytesTransferred <= 0 {
			t.Fatalf("cell %s moved no work: %+v", r.Cell, r)
		}
	}
}

// fleetOutputs runs one fleet to completion and captures every observable
// output: rows (Shard zeroed — placement is the one field that legitimately
// depends on the shard count), the merged trace JSONL, and the per-cell
// metrics JSONL concatenated in cell order.
func fleetOutputs(t *testing.T, cells, shards, gomaxprocs int) ([]FleetRow, []byte, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
	cfg := testFleetConfig(cells, shards)
	cfg.Observe = true
	f := NewFleet(cfg)
	if res := f.RunEvacuation(600); !res.Success() {
		t.Fatalf("evacuation incomplete at %d shards", shards)
	}
	rows := f.Rows()
	for i := range rows {
		rows[i].Shard = 0
	}
	var tj bytes.Buffer
	if err := trace.WriteEventsJSONL(&tj, f.MergedTraceEvents(), f.TraceDrops()); err != nil {
		t.Fatal(err)
	}
	var mj bytes.Buffer
	for i := 0; i < cells; i++ {
		if err := f.CellRegistry(i).WriteJSONL(&mj); err != nil {
			t.Fatal(err)
		}
	}
	return rows, tj.Bytes(), mj.Bytes()
}

// TestFleetShardEquivalence is the sharded kernel's core determinism
// claim, on a workload that genuinely spreads across shards: the same seed
// yields byte-identical rows, merged traces and metrics at every
// (shard count, GOMAXPROCS) combination.
func TestFleetShardEquivalence(t *testing.T) {
	const cells = 6
	refRows, refTrace, refMetrics := fleetOutputs(t, cells, 1, 1)
	if len(refTrace) == 0 || len(refMetrics) == 0 {
		t.Fatalf("reference run produced no observability output")
	}
	for _, tc := range []struct{ shards, procs int }{
		{1, 8}, {3, 1}, {3, 8}, {6, 8},
	} {
		rows, tr, mr := fleetOutputs(t, cells, tc.shards, tc.procs)
		for i := range rows {
			if rows[i] != refRows[i] {
				t.Errorf("shards=%d procs=%d: row %d diverged:\n got %+v\nwant %+v",
					tc.shards, tc.procs, i, rows[i], refRows[i])
			}
		}
		if !bytes.Equal(tr, refTrace) {
			t.Errorf("shards=%d procs=%d: merged trace JSONL diverged (%d vs %d bytes)",
				tc.shards, tc.procs, len(tr), len(refTrace))
		}
		if !bytes.Equal(mr, refMetrics) {
			t.Errorf("shards=%d procs=%d: metrics JSONL diverged (%d vs %d bytes)",
				tc.shards, tc.procs, len(mr), len(refMetrics))
		}
	}
}

// TestShardedFleetIsolatedSinks proves concurrently running shards never
// share a trace or metrics sink: every cell's ring holds only that cell's
// actors, and the run is clean under -race (the CI test job), which would
// flag any cross-shard emitter write.
func TestShardedFleetIsolatedSinks(t *testing.T) {
	const cells = 4
	cfg := testFleetConfig(cells, cells) // one cell per shard: maximal parallelism
	cfg.Observe = true
	f := NewFleet(cfg)
	if res := f.RunEvacuation(600); !res.Success() {
		t.Fatalf("evacuation incomplete")
	}
	for i := 0; i < cells; i++ {
		tr := f.CellTrace(i)
		if tr.Len() == 0 {
			t.Fatalf("cell %d recorded no events", i)
		}
		prefix := f.Rows()[i].Cell
		for _, ev := range tr.Events() {
			if ev.Actor == "" {
				continue
			}
			if !strings.Contains(ev.Actor, prefix) {
				t.Fatalf("cell %d trace holds foreign actor %q (event %v %s)",
					i, ev.Actor, ev.Kind, ev.Detail)
			}
		}
		if f.CellRegistry(i) == nil {
			t.Fatalf("cell %d has no registry", i)
		}
	}
}

// faultedFleetConfig afflicts cell 2 of a four-cell fleet with a VMD
// server crash and a loss window on its source NIC, both timed around the
// cell's migration start (warmup + 2 staggers). The deadline bounds the
// run should the faults wedge the migration.
func faultedFleetConfig(shards int) FleetConfig {
	cfg := testFleetConfig(4, shards)
	cfg.Observe = true
	cfg.MigrationTimeoutSeconds = 10
	start := cfg.WarmupSeconds + 2*cfg.StaggerSeconds
	cfg.Faults = (&sim.FaultPlan{}).
		CrashRestart("inter1", start-0.05, 0.5).
		LossWindow("source", start, 1, 0.2)
	cfg.FaultCells = []int{2}
	return cfg
}

// TestFleetCellFaultsShardInvariant drives a server crash and a loss
// window through a cell's fault plan — the per-cell server lookup and the
// by-name loss seed — and requires the fleet's rows and merged trace to be
// byte-identical whichever shard the afflicted cell runs on.
func TestFleetCellFaultsShardInvariant(t *testing.T) {
	run := func(shards, procs int) ([]FleetRow, []byte, *Fleet) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := NewFleet(faultedFleetConfig(shards))
		f.RunEvacuation(600)
		rows := f.Rows()
		for i := range rows {
			rows[i].Shard = 0
		}
		var tj bytes.Buffer
		if err := trace.WriteEventsJSONL(&tj, f.MergedTraceEvents(), f.TraceDrops()); err != nil {
			t.Fatal(err)
		}
		return rows, tj.Bytes(), f
	}
	refRows, refTrace, ref := run(1, 1)
	tr := ref.CellTrace(2)
	if tr.Count(trace.ServerCrash) != 1 || tr.Count(trace.ServerRestart) != 1 {
		t.Fatalf("cell 2 saw %d crashes, %d restarts; want 1 each",
			tr.Count(trace.ServerCrash), tr.Count(trace.ServerRestart))
	}
	for _, i := range []int{0, 1, 3} {
		if n := ref.CellTrace(i).Count(trace.ServerCrash); n != 0 {
			t.Fatalf("unfaulted cell %d saw %d crashes", i, n)
		}
	}
	if n := ref.cells[2].tb.Source.NIC().MessagesLost(); n == 0 {
		t.Fatal("cell 2's loss window dropped no messages")
	}
	rows, tj, _ := run(3, 8)
	for i := range rows {
		if rows[i] != refRows[i] {
			t.Errorf("row %d diverged at 3 shards:\n got %+v\nwant %+v", i, rows[i], refRows[i])
		}
	}
	if !bytes.Equal(tj, refTrace) {
		t.Errorf("merged trace diverged at 3 shards (%d vs %d bytes)", len(tj), len(refTrace))
	}
}

// TestFleetUnknownFaultTargetPanics: a fleet fault plan resolves its
// targets in the Testbed vocabulary at build time, and a name no cell
// component carries is a scenario bug reported with the name as written.
func TestFleetUnknownFaultTargetPanics(t *testing.T) {
	cfg := testFleetConfig(2, 1)
	cfg.Faults = (&sim.FaultPlan{}).LinkFlap("src", 1, 1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "unknown NIC src") {
			t.Fatalf("got panic %q, want one naming the unknown NIC src", msg)
		}
	}()
	NewFleet(cfg)
}
