package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/vmd"
	"agilemig/internal/workload"
)

// RecoveryConfig shapes the fault-injection scenario: one loaded VM
// migrated with Agile while a VMD intermediate crashes mid-migration, run
// once per replication factor so the rows contrast unreplicated
// degradation (lost pages, spills, retries) against K=2 survival (zero
// loss, background repair).
type RecoveryConfig struct {
	Scale float64
	Seed  uint64
	// ReplicaFactors lists the K values compared (default 1 and 2).
	ReplicaFactors []int
	// Intermediates is the VMD server count (default 3; must be >= 2 so a
	// crash leaves failover targets).
	Intermediates int
	// Shards selects the parallel kernel width (0/1 = serial engine);
	// results are byte-identical at any value.
	Shards int
	// VMD selects the far-memory store's v2 mechanisms; the zero value is
	// the flat v1 store (byte-identical).
	VMD vmd.StoreConfig
}

// The recovery scenario's fixed parameters.
const (
	// recoveryMiBPerReplica sizes each server's pool as K times this many
	// MiB (scaled): K=1 runs tight enough that losing a server exhausts
	// the survivors, K=2 keeps headroom for full replication.
	recoveryMiBPerReplica = 320
	// recoveryCrashAfterSeconds (scaled) is how long after the migration
	// starts the crash fires; recoveryDownForSeconds (scaled) is how long
	// the server stays down before rejoining empty.
	recoveryCrashAfterSeconds = 5
	recoveryDownForSeconds    = 60
	// recoveryLossRate/recoveryLossSeconds open a message-loss window on
	// the source NIC the moment the migration switches over, so
	// post-switchover demand paging exercises the timeout/retry path on
	// top of the crash.
	recoveryLossRate    = 0.3
	recoveryLossSeconds = 10
)

// DefaultRecoveryConfig returns the scenario used by the `recovery`
// experiment id and the headline numbers in EXPERIMENTS.md.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Scale:          1,
		Seed:           1,
		ReplicaFactors: []int{1, 2},
		Intermediates:  3,
	}
}

// RecoveryResult is one replication factor's outcome.
type RecoveryResult struct {
	Replicas int
	Crashed  string  // server name taken down
	CrashAt  float64 // absolute sim seconds of the crash

	Result core.Result

	// Namespace damage/recovery counters, read after the post-migration
	// settle window (so background repair has had time to run).
	LostPages     int64
	LostReads     int64
	SpilledPages  int64
	FailoverReads int64
	Rereplicated  int64
	// MsgsLost counts framed messages the source NIC's loss window ate.
	MsgsLost int64
}

// RunRecovery migrates the quickstart VM with Agile while the fault plan
// crashes one VMD intermediate mid-migration, once per replication factor.
// Every run uses the same seed and workload; only K (and the pool sized to
// match) differs, so the rows isolate what replication buys.
func RunRecovery(cfg RecoveryConfig) []RecoveryResult {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if len(cfg.ReplicaFactors) == 0 {
		cfg.ReplicaFactors = []int{1, 2}
	}
	if cfg.Intermediates < 2 {
		cfg.Intermediates = 3
	}

	// scaleSeconds floors at 1 s (phase durations must not vanish), but the
	// crash and loss offsets are relative to a migration whose length
	// shrinks with scale — those must scale raw or they miss the window.
	raw := func(s float64) float64 { return s * cfg.Scale }
	warmup := scaleSeconds(120, cfg.Scale)
	crashAt := warmup + raw(recoveryCrashAfterSeconds)
	downFor := scaleSeconds(recoveryDownForSeconds, cfg.Scale)
	const victim = "inter1"

	var out []RecoveryResult
	for _, k := range cfg.ReplicaFactors {
		ccfg := cluster.DefaultConfig()
		ccfg.Seed = cfg.Seed
		ccfg.HostRAMBytes = scaleBytes(6*cluster.GiB, cfg.Scale)
		ccfg.Intermediates = cfg.Intermediates
		ccfg.IntermediateRAMBytes = scaleBytes(int64(k)*recoveryMiBPerReplica*cluster.MiB, cfg.Scale)
		ccfg.Replicas = k
		ccfg.Shards = cfg.Shards
		ccfg.VMD = cfg.VMD
		ccfg.Faults = (&sim.FaultPlan{}).CrashRestart(victim, crashAt, downFor)
		tb := cluster.New(ccfg)

		h := tb.DeployVM("recovery", scaleBytes(2*cluster.GiB, cfg.Scale),
			scaleBytes(768*cluster.MiB, cfg.Scale), true)
		h.LoadDataset(scaleBytes(1536*cluster.MiB, cfg.Scale))
		wcfg := workload.YCSB()
		wcfg.MaxOpsPerSecond = 10_000
		wcfg.WriteFraction = 0.05
		h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))

		tb.RunSeconds(warmup)
		mustMigrate(tb, h, core.Agile, tb.Dest, scaleBytes(768*cluster.MiB, cfg.Scale), core.Tuning{})
		// Once execution moves to the destination, degrade the source's
		// link for a while: demand requests and responses start getting
		// dropped, so the destination's timeout/retry path has to carry
		// the migration tail. (The window opens only after switchover —
		// the one-shot CPU-state handoff is not retried.)
		step := raw(0.1)
		for i := 0; i < 8000 && !h.Migration.Switched() && !h.Migration.Done(); i++ {
			tb.RunSeconds(step)
		}
		if h.Migration.Switched() && !h.Migration.Done() {
			nic := tb.Net.NICByName("source")
			nic.SetLossRate(recoveryLossRate, cfg.Seed^0x5851f42d4c957f2d)
			tb.Eng.AfterSeconds(raw(recoveryLossSeconds), func() {
				nic.SetLossRate(0, 0)
			})
		}
		if tb.RunUntilMigrated(h, 4000) != cluster.OutcomeCompleted {
			panic(fmt.Sprintf("experiments: recovery migration wedged at K=%d", k))
		}
		// Ride past the restart so background re-replication can run.
		tb.RunSeconds(downFor + scaleSeconds(30, cfg.Scale))

		out = append(out, RecoveryResult{
			Replicas:      k,
			Crashed:       victim,
			CrashAt:       crashAt,
			Result:        *h.Result,
			LostPages:     h.NS.LostPages(),
			LostReads:     h.NS.LostReads(),
			SpilledPages:  h.NS.SpilledPages(),
			FailoverReads: h.NS.FailoverReads(),
			Rereplicated:  h.NS.Rereplicated(),
			MsgsLost:      tb.Net.NICByName("source").MessagesLost(),
		})
	}
	return out
}

// PrintRecovery renders the recovery rows.
func PrintRecovery(w io.Writer, rows []RecoveryResult) {
	if len(rows) == 0 {
		return
	}
	table := metrics.NewTable(
		fmt.Sprintf("Agile migration surviving a VMD server crash (%s down at %.1fs)",
			rows[0].Crashed, rows[0].CrashAt),
		"K", "total (s)", "downtime (s)", "lost pages", "lost reads",
		"spilled", "failover reads", "re-replicated", "retries", "msgs lost")
	for _, r := range rows {
		table.AddF(r.Replicas,
			fmt.Sprintf("%.1f", r.Result.TotalSeconds),
			fmt.Sprintf("%.3f", r.Result.DowntimeSeconds),
			r.LostPages, r.LostReads, r.SpilledPages,
			r.FailoverReads, r.Rereplicated, r.Result.DemandRetries, r.MsgsLost)
	}
	fmt.Fprint(w, table.String())
	fmt.Fprintln(w)
}
