package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
)

// ScatterEvictionRow is one technique's source-eviction time against a
// constrained destination.
type ScatterEvictionRow struct {
	Technique    core.Technique
	EvictSeconds float64
	Outcome      cluster.Outcome
}

// Completed reports whether the migration finished (source drained).
//
//lint:outcomecheck derived view; the full verdict stays in r.Outcome
func (r ScatterEvictionRow) Completed() bool { return r.Outcome == cluster.OutcomeCompleted }

// RunScatterEviction compares how fast each technique frees the source
// when the destination's NIC runs at a quarter of line rate — the fast
// server-deprovisioning scenario of the authors' prior work ([22]).
// Scatter-gather is bounded by the source NIC and the intermediaries, so
// it should win by a wide margin.
func RunScatterEviction(scale float64, seed uint64) []ScatterEvictionRow {
	techniques := []core.Technique{core.PreCopy, core.PostCopy, core.Agile, core.ScatterGather}
	var rows []ScatterEvictionRow
	for _, tech := range techniques {
		tcfg := cluster.DefaultConfig()
		tcfg.Seed = seed
		tcfg.HostRAMBytes = scaleBytes(6*cluster.GiB, scale)
		tcfg.IntermediateRAMBytes = scaleBytes(32*cluster.GiB, scale)
		tb := clusterWithSlowDest(tcfg)
		h := tb.DeployVM("vm", scaleBytes(4*cluster.GiB, scale), scaleBytes(3*cluster.GiB, scale), true)
		h.LoadDataset(scaleBytes(3500*cluster.MiB, scale))
		ccfg := ycsbClient()
		ccfg.MaxOpsPerSecond = 8000
		h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))
		tb.RunSeconds(scaleSeconds(120, scale))
		mustMigrate(tb, h, tech, tb.Dest, scaleBytes(3*cluster.GiB, scale), core.Tuning{})
		done := tb.RunUntilMigrated(h, scaleSeconds(8000, scale))
		row := ScatterEvictionRow{Technique: tech, Outcome: done}
		if h.Result != nil {
			row.EvictSeconds = h.Result.TotalSeconds
		}
		rows = append(rows, row)
	}
	return rows
}

// clusterWithSlowDest builds a testbed whose destination NIC runs at a
// quarter of the configured rate.
func clusterWithSlowDest(cfg cluster.Config) *cluster.Testbed {
	cfg.DestNetBytesPerSec = cfg.NetBytesPerSec / 4
	return cluster.New(cfg)
}

// PrintScatterEviction renders the comparison.
func PrintScatterEviction(w io.Writer, rows []ScatterEvictionRow) {
	fmt.Fprintln(w, "Source-eviction time with a quarter-speed destination NIC")
	for _, r := range rows {
		state := ""
		if r.Outcome == cluster.OutcomeAborted {
			state = "  (aborted)"
		} else if !r.Completed() {
			state = "  (did not complete)"
		}
		fmt.Fprintf(w, "  %-15s %8.1fs%s\n", r.Technique, r.EvictSeconds, state)
	}
	fmt.Fprintln(w)
}
