package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
)

// PressureConfig shapes the Figures 4-6 scenario: four 10 GB VMs on a
// 23 GB source host, each serving a 9 GB Redis dataset to a YCSB client.
// The queried fraction ramps from 200 MB to 6 GB per VM (staggered), the
// host thrashes, and one VM is migrated to relieve the pressure.
type PressureConfig struct {
	Technique core.Technique
	Scale     float64 // 1.0 = paper scale
	Seed      uint64

	// SettleSeconds is the post-load warmup before t=0 (unscaled input;
	// scaled internally).
	SettleSeconds float64
	// MigrateAt / Duration are the paper's 400 s / ~1000 s timeline
	// (scaled internally).
	MigrateAt float64
	Duration  float64

	// DisableFastForward steps tick by tick (see cluster.Config).
	DisableFastForward bool
}

// The paper's ramp: at 150 s each client starts widening its queried
// fraction, one VM every 50 s (scaled internally).
const (
	pressureRampStart   = 150
	pressureRampStagger = 50
)

// DefaultPressureConfig returns the paper's timeline for a technique.
func DefaultPressureConfig(tech core.Technique) PressureConfig {
	return PressureConfig{
		Technique:     tech,
		Scale:         1.0,
		Seed:          1,
		SettleSeconds: 250,
		MigrateAt:     400,
		Duration:      1600, // past the paper's ~1000 s so pre-copy's late recovery is visible
	}
}

// PressureResult carries the timeline and the derived §V-A numbers.
type PressureResult struct {
	Technique core.Technique
	// AvgThroughput is the average YCSB throughput per VM over time — the
	// series Figures 4-6 plot.
	AvgThroughput *metrics.Series
	// PerVM holds each client's own throughput series.
	PerVM []*metrics.Series
	// Migration is the completed migration's result (times, bytes).
	Migration *core.Result
	// MigrationStart is when the migration began, in scenario seconds.
	MigrationStart float64
	// PeakOps is the smoothed peak of the average-throughput series.
	PeakOps float64
	// RecoverySeconds is the time from migration start until the average
	// throughput is restored to 90% of its peak (§V-A reports
	// 533/294/215 s for pre-copy/post-copy/Agile). Negative if never.
	RecoverySeconds float64
}

// RunPressureTechniques runs the Figures 4-6 timeline once per technique —
// the same scenario except for cfg.Technique — fanning the independent
// scenarios across workers (0 = all cores, 1 = serial). Results come back
// in techs order and are identical to running each timeline serially.
func RunPressureTechniques(cfg PressureConfig, techs []core.Technique, parallelism int) []*PressureResult {
	return runPoints(parallelism, len(techs), func(i int) *PressureResult {
		c := cfg
		c.Technique = techs[i]
		return RunPressureTimeline(c)
	})
}

// RunPressureTimeline executes the scenario.
func RunPressureTimeline(cfg PressureConfig) *PressureResult {
	s := cfg.Scale
	if s <= 0 {
		s = 1
	}
	agile := cfg.Technique == core.Agile

	tcfg := cluster.DefaultConfig()
	tcfg.Seed = cfg.Seed
	tcfg.HostRAMBytes = scaleBytes(PaperHostRAM, s)
	tcfg.SwapPartitionBytes = scaleBytes(30*cluster.GiB, s)
	tcfg.IntermediateRAMBytes = scaleBytes(100*cluster.GiB, s)
	tcfg.DisableFastForward = cfg.DisableFastForward
	tb := cluster.New(tcfg)

	vmMem := scaleBytes(PaperVMMem, s)
	resv := scaleBytes(PaperReservation, s)
	dataset := scaleBytes(PaperYCSBDataset, s)
	smallFrac := scaleBytes(PaperSmallFraction, s)
	largeFrac := scaleBytes(PaperLargeFraction, s)

	ccfg := ycsbClient()
	recSize := int64(1024)

	var handles []*cluster.VMHandle
	for i := 0; i < PaperNumVMs; i++ {
		h := tb.DeployVM(fmt.Sprintf("vm%d", i+1), vmMem, resv, agile)
		h.LoadDataset(dataset)
		h.AttachClient(ccfg, dist.NewUniform(smallFrac/recSize))
		handles = append(handles, h)
	}

	res := &PressureResult{Technique: cfg.Technique}
	// Sample each client's rate and the average across VMs once per
	// (scaled) second.
	interval := scaleSeconds(1, s)
	base := tb.Eng.NowSeconds()
	var counters []func() float64
	for i, h := range handles {
		h := h
		series := metrics.NewSeries(fmt.Sprintf("vm%d.ops", i+1))
		res.PerVM = append(res.PerVM, series)
		metrics.SampleRate(tb.Eng, interval, series, func() float64 {
			return float64(h.Client.OpsCompleted())
		})
		counters = append(counters, func() float64 { return float64(h.Client.OpsCompleted()) })
	}
	res.AvgThroughput = metrics.NewSeries("avg.ops")
	var lastTotal float64
	lastT := base
	metrics.Sample(tb.Eng, interval, res.AvgThroughput, func() float64 {
		var total float64
		for _, c := range counters {
			total += c()
		}
		now := tb.Eng.NowSeconds()
		dt := now - lastT
		rate := 0.0
		if dt > 0 {
			rate = (total - lastTotal) / dt / PaperNumVMs
		}
		lastTotal, lastT = total, now
		return rate
	})

	// Settle: let load-time reclaim push cold pages out.
	tb.RunSeconds(scaleSeconds(cfg.SettleSeconds, s))
	t0 := tb.Eng.NowSeconds()

	// The ramp: at pressureRampStart (+ stagger per VM) each client widens
	// its queried fraction to 6 GB.
	rampStart := scaleSeconds(pressureRampStart, s)
	stagger := scaleSeconds(pressureRampStagger, s)
	for i, h := range handles {
		h := h
		at := rampStart + float64(i)*stagger
		tb.Eng.AfterSeconds(at, func() {
			h.Client.SetDist(dist.NewUniform(largeFrac / recSize))
		})
	}

	// The migration: at MigrateAt, move vm1 (the VMs are symmetric; the
	// paper picks one at random) and rebalance the source afterwards.
	destResv := scaleBytes(7*cluster.GiB, s)
	migrateAt := scaleSeconds(cfg.MigrateAt, s)
	victim := handles[0]
	rebalanced := false
	tb.Eng.AfterSeconds(migrateAt, func() {
		res.MigrationStart = tb.Eng.NowSeconds() - t0
		mustMigrate(tb, victim, cfg.Technique, tb.Dest, destResv, core.Tuning{})
		// Once the source no longer holds the migrated VM's memory, the
		// cluster manager redistributes the freed reservation among the
		// three remaining VMs (§V-A: "the source host can accommodate the
		// remaining three VMs in its memory").
		tb.Eng.Every(tb.Eng.SecondsToTicks(scaleSeconds(1, s)), func(sim.Time) bool {
			if victim.Result == nil {
				return true
			}
			if !rebalanced {
				rebalanced = true
				tb.RebalanceSource(destResv)
			}
			return false
		})
	})

	// Run the full timeline.
	tb.RunSeconds(scaleSeconds(cfg.Duration, s))
	if victim.Result != nil {
		res.Migration = victim.Result
	} else if victim.Migration != nil {
		// Still running at the end of the window; report what we have.
		res.Migration = victim.Migration.Result()
	}

	res.PeakOps = res.AvgThroughput.MaxSmoothed(5)
	migStartAbs := res.MigrationStart
	if d, ok := metrics.RecoveryTime(res.AvgThroughput, t0+migStartAbs, 0.9*res.PeakOps, 5, 5); ok {
		res.RecoverySeconds = d
	} else {
		res.RecoverySeconds = -1
	}
	return res
}

// Print writes the figure's series (as an ASCII plot plus summary lines).
func (r *PressureResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure (YCSB avg throughput during %s migration)\n", r.Technique)
	fmt.Fprint(w, metrics.AsciiPlot(r.AvgThroughput, 24, 48))
	if r.Migration != nil {
		fmt.Fprintf(w, "migration: total %.1fs, downtime %.3fs, %.0f MB transferred\n",
			r.Migration.TotalSeconds, r.Migration.DowntimeSeconds, float64(r.Migration.BytesTransferred)/1e6)
	}
	fmt.Fprintf(w, "peak %.0f ops/s per VM; recovery to 90%% of peak: %.1fs after migration start\n",
		r.PeakOps, r.RecoverySeconds)
}

// WriteCSV emits the timeline for external plotting.
func (r *PressureResult) WriteCSV(w io.Writer) error {
	series := append([]*metrics.Series{r.AvgThroughput}, r.PerVM...)
	return metrics.WriteSeriesCSV(w, series...)
}
