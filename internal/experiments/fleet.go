package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"agilemig/internal/cluster"
	"agilemig/internal/metrics"
)

// FleetOptions shapes the `fleet` experiment: the 64-host staggered
// evacuation from cluster.Fleet, the workload the sharded-kernel scaling
// benchmark runs. Scale multiplies memory sizes and the warmup exactly as
// in the paper experiments.
type FleetOptions struct {
	Cells  int
	Shards int
	Seed   uint64
	Scale  float64
	// Observe attaches per-cell trace/metrics sinks (required for the
	// -trace-jsonl / -metrics-out outputs).
	Observe       bool
	TraceCapacity int
}

// fleetMaxSeconds bounds the fleet run in simulated time.
const fleetMaxSeconds = 600

// DefaultFleetOptions mirrors cluster.DefaultFleetConfig at scale 1.
func DefaultFleetOptions() FleetOptions {
	return FleetOptions{
		Cells:  32,
		Shards: 1,
		Seed:   1,
		Scale:  1,
	}
}

// FleetReport is the evacuation outcome plus the fleet itself (kept alive
// so callers can export the merged observability streams).
type FleetReport struct {
	Rows       []cluster.FleetRow
	Result     cluster.EvacuationResult
	SimSeconds float64
	Fleet      *cluster.Fleet
}

// RunFleet builds and runs the evacuation. Results are byte-identical at
// any Shards value and GOMAXPROCS (modulo the Shard placement column),
// which the shard-equivalence suite and the CI matrix both diff.
func RunFleet(opt FleetOptions) FleetReport {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	cfg := cluster.DefaultFleetConfig()
	if opt.Cells > 0 {
		cfg.Cells = opt.Cells
	}
	if opt.Shards > 0 {
		cfg.Shards = opt.Shards
	}
	cfg.Seed = opt.Seed
	cfg.HostRAMBytes = scaleBytes(cfg.HostRAMBytes, opt.Scale)
	cfg.VMMemBytes = scaleBytes(cfg.VMMemBytes, opt.Scale)
	cfg.DatasetBytes = scaleBytes(cfg.DatasetBytes, opt.Scale)
	cfg.ReservationBytes = scaleBytes(cfg.ReservationBytes, opt.Scale)
	cfg.IntermediateRAMBytes = scaleBytes(cfg.IntermediateRAMBytes, opt.Scale)
	cfg.WarmupSeconds = scaleSeconds(cfg.WarmupSeconds, opt.Scale)
	cfg.Observe = opt.Observe
	cfg.TraceCapacity = opt.TraceCapacity

	f := cluster.NewFleet(cfg)
	res := f.RunEvacuation(fleetMaxSeconds)
	return FleetReport{
		Rows:       f.Rows(),
		Result:     res,
		SimSeconds: f.Group.Engine(0).NowSeconds(),
		Fleet:      f,
	}
}

// PrintFleet renders the evacuation rows plus an aggregate line.
func PrintFleet(w io.Writer, rep FleetReport) {
	table := metrics.NewTable(
		fmt.Sprintf("Fleet evacuation: %d cells (%d hosts), %d shard(s)",
			len(rep.Rows), 2*len(rep.Rows), rep.Fleet.Cfg.Shards),
		"cell", "shard", "start (s)", "total (s)", "downtime (s)", "data (MB)", "ops done", "outcome")
	var totalBytes, totalOps int64
	var maxDone, sumTotal, sumDown float64
	for _, r := range rep.Rows {
		outcome := r.Outcome
		if r.Reason != "" {
			outcome += " (" + r.Reason + ")"
		}
		table.AddF(r.Cell, r.Shard,
			fmt.Sprintf("%.2f", r.StartedAtSeconds),
			fmt.Sprintf("%.2f", r.TotalSeconds),
			fmt.Sprintf("%.3f", r.DowntimeSeconds),
			fmt.Sprintf("%.0f", float64(r.BytesTransferred)/1e6),
			r.OpsAtComplete, outcome)
		totalBytes += r.BytesTransferred
		totalOps += r.OpsAtComplete
		sumTotal += r.TotalSeconds
		sumDown += r.DowntimeSeconds
		if r.DoneAtSeconds > maxDone {
			maxDone = r.DoneAtSeconds
		}
	}
	fmt.Fprint(w, table.String())
	n := float64(len(rep.Rows))
	if n > 0 {
		fmt.Fprintf(w, "evacuated %d VMs in %.1fs of simulated time: mean total %.2fs, mean downtime %.3fs, %.0f MB moved, %d client ops served\n",
			len(rep.Rows), maxDone, sumTotal/n, sumDown/n, float64(totalBytes)/1e6, totalOps)
	}
	if !rep.Result.Success() {
		fmt.Fprintf(w, "WARNING: %s after %.1fs simulated\n", rep.Result, rep.SimSeconds)
	}
}

// WriteFleetCSV writes the rows as CSV — one deterministic line per cell,
// in cell order, used by the CI shard-equivalence diff.
func WriteFleetCSV(w io.Writer, rows []cluster.FleetRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cell", "started_s", "done_s", "total_s", "downtime_s", "bytes", "ops", "outcome", "reason"}); err != nil {
		return err
	}
	for _, r := range rows {
		// The shard column is placement, the one field that legitimately
		// varies with -shards; the CSV carries only the invariant outcome.
		rec := []string{
			r.Cell,
			fmt.Sprintf("%.3f", r.StartedAtSeconds),
			fmt.Sprintf("%.3f", r.DoneAtSeconds),
			fmt.Sprintf("%.3f", r.TotalSeconds),
			fmt.Sprintf("%.3f", r.DowntimeSeconds),
			strconv.FormatInt(r.BytesTransferred, 10),
			strconv.FormatInt(r.OpsAtComplete, 10),
			r.Outcome,
			r.Reason,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
