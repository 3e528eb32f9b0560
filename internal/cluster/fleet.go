package cluster

import (
	"fmt"

	"agilemig/internal/blockdev"
	"agilemig/internal/core"
	"agilemig/internal/ctlplane"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
	"agilemig/internal/workload"
)

// FleetConfig shapes a Fleet: an evacuation-scale cluster of independent
// migration cells spread across the shards of the parallel kernel. Each
// cell is a Testbed — source host, destination host, one VMD
// intermediate, an external client — built on its shard's engine with its
// own simnet.Network: simnet's max-min fairness couples every NIC of one
// network into a single arbitration domain, so the network is the unit of
// shard ownership (DESIGN.md §6g) and giving each cell its own keeps cells
// independent and shardable.
type FleetConfig struct {
	Seed uint64
	// Cells is the number of migration cells; each contributes two full
	// hosts plus an intermediate, so the default 32 is a 64-host cluster.
	Cells int
	// Shards is the parallel kernel width (default 1, the serial
	// reference). Cells are block-assigned: cell i lives on shard
	// i*Shards/Cells, so concatenating per-shard output in shard order
	// yields cell order at any shard count.
	Shards int

	HostRAMBytes         int64
	OSOverheadBytes      int64
	VMMemBytes           int64
	DatasetBytes         int64
	ReservationBytes     int64
	IntermediateRAMBytes int64
	NetBytesPerSec       int64
	SwapPartitionBytes   int64
	SSD                  blockdev.Config

	// StaggerSeconds separates consecutive cells' migration start commands
	// (clamped to at least one tick).
	StaggerSeconds float64
	// WarmupSeconds is how long workloads run before the first start
	// command, letting reclaim push each dataset's cold tail to swap.
	WarmupSeconds float64
	// SettleSeconds is how long the fleet keeps running after the last
	// migration completes before stopping itself.
	SettleSeconds float64

	MaxOpsPerSecond float64
	WriteFraction   float64

	// MigrationTimeoutSeconds, when positive, is each cell Migration's
	// switchover deadline (ctlplane.Spec.TimeoutSeconds): a migration that
	// has not reached switchover by then is aborted and rolled back to its
	// source, and the cell reports Outcome "aborted" instead of blocking
	// the fleet forever. Zero sets no deadline.
	MigrationTimeoutSeconds float64
	// Faults, when non-empty, is a per-cell fault schedule with the same
	// target vocabulary as Config.Faults: "source", "dest", "clients" and
	// "inter1" name the cell's NICs (for link and loss events) and "inter1"
	// its VMD server (for crash/restart); each afflicted cell resolves them
	// to its own prefixed components. Afflicted cells arm the VMD
	// fault-tolerance timeouts and the demand-paging retry path, exactly as
	// a Testbed does under a fault plan.
	Faults *sim.FaultPlan
	// FaultCells selects which cell indices receive the fault plan; nil
	// applies it to every cell.
	FaultCells []int

	// Observe attaches one trace and one metrics registry per cell
	// (disjoint per shard by construction, which the -race isolation test
	// relies on). Merged views are deterministic at any shard count.
	Observe bool
	// TraceCapacity bounds each cell's ring when Observe is set (0 selects
	// trace.DefaultCapacity).
	TraceCapacity int
}

// controlLatencySeconds is the one-way latency of the evacuation
// controller's links to the cells. It is also what bounds the kernel's
// lookahead (1 + latency ticks), so it sets the compute-per-barrier ratio
// of a parallel run.
const controlLatencySeconds = 0.020

// DefaultFleetConfig returns a 32-cell (64-host) evacuation sized so a
// full run is minutes of simulated time: 64 MiB VMs with 48 MiB datasets
// under 24 MiB reservations, swapping the overflow to a one-server VMD per
// cell over 1 Gbps links.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Seed:                 1,
		Cells:                32,
		Shards:               1,
		HostRAMBytes:         192 * MiB,
		OSOverheadBytes:      16 * MiB,
		VMMemBytes:           64 * MiB,
		DatasetBytes:         48 * MiB,
		ReservationBytes:     24 * MiB,
		IntermediateRAMBytes: 256 * MiB,
		NetBytesPerSec:       GbpsBytes,
		SwapPartitionBytes:   1 * GiB,
		SSD: blockdev.Config{
			Name:           "cell-ssd",
			BytesPerSecond: 90 * MiB,
			IOPS:           10_000,
		},
		StaggerSeconds:  0.25,
		WarmupSeconds:   30,
		SettleSeconds:   5,
		MaxOpsPerSecond: 2000,
		WriteFraction:   0.05,
	}
}

// FleetRow is one cell's evacuation outcome. Every field is captured at a
// deterministic simulated time on the cell's own shard, so rows are
// byte-identical across shard counts and GOMAXPROCS.
type FleetRow struct {
	Cell             string
	Shard            int
	StartedAtSeconds float64
	DoneAtSeconds    float64
	TotalSeconds     float64
	DowntimeSeconds  float64
	BytesTransferred int64
	OpsAtComplete    int64
	// Outcome is "completed", "aborted" or "unfinished"; Reason carries
	// the failure detail for the latter two. Before this field existed an
	// aborted cell was indistinguishable from an evacuated one: the
	// migration's OnComplete fires for rollbacks too, so the fleet counted
	// the cell "done" and reported the evacuation a success.
	Outcome string
	Reason  string
}

// The FleetRow.Outcome values.
const (
	FleetOutcomeCompleted  = "completed"
	FleetOutcomeAborted    = "aborted"
	FleetOutcomeUnfinished = "unfinished"
)

// fleetCell is one migration cell: a testbed on its shard's engine, the
// one VM it evacuates, and the controller its Migration is submitted to.
type fleetCell struct {
	tb  *Testbed
	vm  *VMHandle
	ctl *ctlplane.Controller
	row FleetRow
}

// Fleet is the assembled evacuation cluster: Cells independent migration
// cells sharded over a sim.ShardGroup, plus an evacuation controller on
// shard 0 that staggers the start commands over control links — each one
// submits the cell's Migration to the cell's own ctlplane.Controller —
// and stops the run once every cell reports a terminal Migration.
type Fleet struct {
	Cfg   FleetConfig
	Group *sim.ShardGroup

	cells []*fleetCell
	// terminal counts cells whose migration reached a terminal state
	// (completed or aborted) — the settle-and-stop trigger.
	terminal int
}

// NewFleet builds the fleet. All construction happens before the first
// run, on the caller's goroutine.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Cells <= 0 {
		cfg.Cells = 32
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Cells {
		cfg.Shards = cfg.Cells
	}
	g := sim.NewShardGroup(cfg.Seed, cfg.Shards)
	f := &Fleet{Cfg: cfg, Group: g}

	// Control links in both directions for every shard, shard 0 included:
	// self-links count toward the lookahead bound, so the window grid —
	// and with it every barrier and drain point — is identical whether the
	// fleet runs on one shard or many.
	ctrlLat := g.Engine(0).SecondsToTicks(controlLatencySeconds)
	if ctrlLat < 1 {
		ctrlLat = 1
	}
	starts := make([]*sim.ShardLink, cfg.Shards)
	dones := make([]*sim.ShardLink, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		starts[s] = g.Link(0, s, ctrlLat, 0)
		dones[s] = g.Link(s, 0, ctrlLat, 0)
	}

	for i := 0; i < cfg.Cells; i++ {
		name := fmt.Sprintf("cell%03d", i)
		c := &fleetCell{row: FleetRow{Cell: name, Shard: i * cfg.Shards / cfg.Cells}}
		tcfg := Config{
			Seed:                 cfg.Seed,
			HostRAMBytes:         cfg.HostRAMBytes,
			OSOverheadBytes:      cfg.OSOverheadBytes,
			NetBytesPerSec:       cfg.NetBytesPerSec,
			SSD:                  cfg.SSD,
			SwapPartitionBytes:   cfg.SwapPartitionBytes,
			Intermediates:        1,
			IntermediateRAMBytes: cfg.IntermediateRAMBytes,
		}
		tcfg.SSD.Name = name + "-" + cfg.SSD.Name
		if cfg.Observe {
			tcfg.Trace = trace.New(cfg.TraceCapacity)
			tcfg.Metrics = metrics.NewRegistry()
		}
		if f.cellFaulted(i) {
			tcfg.Faults = cfg.Faults
		}
		c.tb = newTestbed(g.Engine(c.row.Shard), tcfg, name)
		c.vm = c.tb.DeployVM(name+"-vm", cfg.VMMemBytes, cfg.ReservationBytes, true)
		c.vm.LoadDataset(cfg.DatasetBytes)
		wcfg := workload.YCSB()
		wcfg.Name = name + "-ycsb"
		wcfg.MaxOpsPerSecond = cfg.MaxOpsPerSecond
		wcfg.Concurrency = 8
		wcfg.WriteFraction = cfg.WriteFraction
		c.vm.AttachClient(wcfg, dist.NewUniform(c.vm.Store.Records()))
		f.cells = append(f.cells, c)
	}

	// The evacuation controller: one staggered start command per cell,
	// issued from shard 0 one tick before the stagger point, so the cell
	// controller's reconcile (one tick after the Submit) launches on it.
	// The completion handler is commutative (a count and a stop timer), as
	// same-tick cross-shard arrivals drain in source-shard order — see the
	// §6g proof obligations.
	eng0 := g.Engine(0)
	stagger := eng0.SecondsToTicks(cfg.StaggerSeconds)
	if stagger < 1 {
		stagger = 1
	}
	warmup := eng0.SecondsToTicks(cfg.WarmupSeconds)
	for i, c := range f.cells {
		c := c
		at := sim.Time(warmup) + sim.Time(int64(i)*int64(stagger)) - 1
		link := starts[c.row.Shard]
		back := dones[c.row.Shard]
		c.ctl = ctlplane.NewController(c.tb.Eng, c.tb, ctlplane.Config{
			OnTerminal: func(m *ctlplane.Migration) {
				c.finish(m)
				back.Send(0, f.cellCompleted)
			},
		})
		eng0.Schedule(at, func() {
			link.Send(0, func() {
				c.ctl.Submit(ctlplane.Spec{
					VM:                   c.vm.VM.Name(),
					Technique:            core.Agile,
					DestHost:             c.tb.Dest.Name(),
					DestReservationBytes: cfg.ReservationBytes,
					TimeoutSeconds:       cfg.MigrationTimeoutSeconds,
				})
			})
		})
	}
	return f
}

// cellFaulted reports whether cell i is afflicted by the fleet fault plan.
func (f *Fleet) cellFaulted(i int) bool {
	if f.Cfg.FaultCells == nil {
		return true
	}
	for _, idx := range f.Cfg.FaultCells {
		if idx == i {
			return true
		}
	}
	return false
}

// finish fills the cell's row from its terminal Migration, on the cell's
// shard at the terminal tick — deterministic however long the run
// continues.
func (c *fleetCell) finish(m *ctlplane.Migration) {
	st := m.Status
	if st.Phase == ctlplane.PhaseFailed {
		// Each cell migrates its one VM once, onto a host it built.
		panic(st.Reason)
	}
	res := st.Result
	c.row.StartedAtSeconds = st.StartedAtSeconds
	c.row.DoneAtSeconds = st.FinishedAtSeconds
	c.row.TotalSeconds = res.TotalSeconds
	c.row.DowntimeSeconds = res.DowntimeSeconds
	c.row.BytesTransferred = res.BytesTransferred
	c.row.OpsAtComplete = c.vm.Client.OpsCompleted()
	c.row.Outcome = FleetOutcomeCompleted
	if st.Phase == ctlplane.PhaseAborted {
		c.row.Outcome = FleetOutcomeAborted
		c.row.Reason = st.Reason
	}
}

// cellCompleted runs on shard 0 each time a cell's terminal report —
// evacuated or rolled back — arrives over its control link; the last one
// arms the settle-and-stop timer.
func (f *Fleet) cellCompleted() {
	f.terminal++
	if f.terminal == len(f.cells) {
		f.Group.Engine(0).AfterSeconds(f.Cfg.SettleSeconds, f.Group.Stop)
	}
}

// EvacuationResult distinguishes a clean evacuation from a partial one:
// how many cells evacuated, how many rolled back, and how many were still
// in flight (or never started) when the run ended.
type EvacuationResult struct {
	Cells      int
	Evacuated  int
	Aborted    int
	Unfinished int
}

// Success reports a clean evacuation: every cell's VM runs at its
// destination.
func (r EvacuationResult) Success() bool { return r.Evacuated == r.Cells }

// String summarizes the result.
func (r EvacuationResult) String() string {
	if r.Success() {
		return fmt.Sprintf("evacuated %d/%d cells", r.Evacuated, r.Cells)
	}
	return fmt.Sprintf("evacuated %d/%d cells (%d aborted, %d unfinished)",
		r.Evacuated, r.Cells, r.Aborted, r.Unfinished)
}

// RunEvacuation drives the whole evacuation: warmup, staggered migrations,
// settle, stop — bounded by maxSeconds of simulated time. The result
// distinguishes success from partial failure; rows not terminal when the
// run ends are finalized as "unfinished" with a reason. (The historical
// bool return said "done" as soon as every cell reported terminal — a
// fleet full of rollbacks counted as a finished evacuation.)
func (f *Fleet) RunEvacuation(maxSeconds float64) EvacuationResult {
	f.Group.RunSeconds(maxSeconds)
	res := EvacuationResult{Cells: len(f.cells)}
	now := f.Group.Engine(0).NowSeconds()
	for _, c := range f.cells {
		switch c.row.Outcome {
		case FleetOutcomeCompleted:
			res.Evacuated++
		case FleetOutcomeAborted:
			res.Aborted++
		default:
			res.Unfinished++
			c.row.Outcome = FleetOutcomeUnfinished
			if ms := c.ctl.Migrations(); len(ms) > 0 && ms[0].Status.StartedAtSeconds >= 0 {
				c.row.StartedAtSeconds = ms[0].Status.StartedAtSeconds
				c.row.Reason = fmt.Sprintf("still in flight at %.0fs", now)
			} else {
				c.row.Reason = "never started"
			}
		}
	}
	return res
}

// Rows returns the per-cell outcomes in cell order. Call it only between
// runs (at a barrier), when every shard is quiescent.
func (f *Fleet) Rows() []FleetRow {
	rows := make([]FleetRow, len(f.cells))
	for i, c := range f.cells {
		rows[i] = c.row
	}
	return rows
}

// MergedTraceEvents returns every cell's trace merged into the canonical
// (T, Scope, Actor) timeline — byte-identical at any shard count because
// each actor lives in exactly one cell. Nil when the fleet was built
// without Observe.
func (f *Fleet) MergedTraceEvents() []trace.Event {
	traces := make([]*trace.Trace, len(f.cells))
	for i, c := range f.cells {
		traces[i] = c.tb.Cfg.Trace
	}
	return trace.MergeByTime(traces...)
}

// TraceDrops sums ring overwrites across the per-cell traces.
func (f *Fleet) TraceDrops() int64 {
	var d int64
	for _, c := range f.cells {
		d += c.tb.Cfg.Trace.Drops()
	}
	return d
}

// MergedSpans returns every cell's spans merged into the canonical
// (Start, Scope, Actor) order with IDs renumbered and parent links
// remapped — like MergedTraceEvents, byte-identical at any shard count.
// Nil when the fleet was built without Observe.
func (f *Fleet) MergedSpans() []trace.Span {
	traces := make([]*trace.Trace, len(f.cells))
	for i, c := range f.cells {
		traces[i] = c.tb.Cfg.Trace
	}
	return trace.MergeSpans(traces...)
}

// SpanDrops sums refused span Begins across the per-cell traces.
func (f *Fleet) SpanDrops() int64 {
	var d int64
	for _, c := range f.cells {
		d += c.tb.Cfg.Trace.SpanDrops()
	}
	return d
}

// OpenSpans sums never-ended spans across the per-cell traces.
func (f *Fleet) OpenSpans() int {
	var n int
	for _, c := range f.cells {
		n += c.tb.Cfg.Trace.OpenSpans()
	}
	return n
}

// CellTrace returns cell i's private trace (nil without Observe); the
// -race sink-isolation test uses it to prove shards share no emitter.
func (f *Fleet) CellTrace(i int) *trace.Trace { return f.cells[i].tb.Cfg.Trace }

// CellRegistry returns cell i's private metrics registry (nil without
// Observe).
func (f *Fleet) CellRegistry(i int) *metrics.Registry { return f.cells[i].tb.Cfg.Metrics }
