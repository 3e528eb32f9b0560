package cluster

import (
	"reflect"
	"testing"

	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/sim"
	"agilemig/internal/workload"
)

// runAgileScenario deploys the same loaded VM on the given config, runs the
// same warmup and Agile migration, and returns the handle.
func runAgileScenario(t *testing.T, cfg Config) *VMHandle {
	t.Helper()
	tb := New(cfg)
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 3000
	h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(60)
	if _, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{}); err != nil {
		t.Fatal(err)
	}
	if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
		t.Fatal("migration did not complete")
	}
	tb.RunSeconds(10)
	return h
}

func TestZeroFaultConfigEquivalence(t *testing.T) {
	// An empty fault plan and replicas=1 must leave every observable
	// number exactly as a config that never mentions faults: the fault
	// machinery may not perturb healthy runs.
	plain := runAgileScenario(t, smallConfig())

	cfg := smallConfig()
	cfg.Faults = &sim.FaultPlan{}
	cfg.Replicas = 1
	armed := runAgileScenario(t, cfg)

	if !reflect.DeepEqual(*plain.Result, *armed.Result) {
		t.Fatalf("results diverge:\nplain: %+v\narmed: %+v", *plain.Result, *armed.Result)
	}
	if plain.Client.OpsCompleted() != armed.Client.OpsCompleted() {
		t.Fatalf("workload progress diverges: %d vs %d",
			plain.Client.OpsCompleted(), armed.Client.OpsCompleted())
	}
}

func TestAgileSurvivesVMDServerCrashWithReplicas(t *testing.T) {
	cfg := smallConfig()
	cfg.Intermediates = 3
	cfg.IntermediateRAMBytes = 2 * GiB
	cfg.Replicas = 2
	// Take a VMD server down right as the migration's live round runs and
	// bring it back before the run ends.
	cfg.Faults = (&sim.FaultPlan{}).CrashRestart("inter1", 61, 30)
	tb := New(cfg)
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 3000
	h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(60)
	if _, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{}); err != nil {
		t.Fatal(err)
	}
	if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
		t.Fatal("migration did not survive the crash")
	}
	tb.RunSeconds(60)
	if h.NS.LostPages() != 0 || h.NS.LostReads() != 0 {
		t.Fatalf("K=2 lost state anyway: %d pages unrecoverable, %d reads damaged",
			h.NS.LostPages(), h.NS.LostReads())
	}
}

func TestUnreplicatedCrashDegradesWithoutPanic(t *testing.T) {
	cfg := smallConfig()
	cfg.Intermediates = 2
	cfg.IntermediateRAMBytes = 1 * GiB
	cfg.Replicas = 1
	cfg.Faults = (&sim.FaultPlan{}).CrashRestart("inter1", 61, 30)
	tb := New(cfg)
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 3000
	h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(60)
	tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{})
	// The headline guarantee: losing a VMD server without replicas
	// degrades (zero-filled reads, spills, retries) — the run completes.
	if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
		t.Fatal("migration wedged after unreplicated crash")
	}
	tb.RunSeconds(60)
}

func TestAbortRollsBackToSource(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 3000
	h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(60)
	m, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	tb.RunSeconds(1)
	if m.Switched() {
		t.Skip("migration switched over before the abort point")
	}
	if !m.Abort() {
		t.Fatal("pre-switchover abort refused")
	}
	if !m.Done() || !m.Aborted() || !h.Result.Aborted {
		t.Fatal("abort did not settle the migration as aborted")
	}
	if len(tb.Source.VMs()) != 1 {
		t.Fatal("VM missing from the source after rollback")
	}
	if !h.VM.Running() {
		t.Fatal("VM not running after rollback")
	}
	if m.Abort() {
		t.Fatal("second abort succeeded")
	}
	// The guest keeps making progress at the source.
	before := h.Client.OpsCompleted()
	tb.RunSeconds(10)
	if h.Client.OpsCompleted() == before {
		t.Fatal("workload stalled after rollback")
	}
}

func TestAbortRefusedAfterSwitchover(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	tb.RunSeconds(60)
	m, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
		t.Fatal("migration did not complete")
	}
	if m.Abort() {
		t.Fatal("abort succeeded after the destination took over")
	}
}

func TestDemandRetryRecoversFromLossWindow(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 3000
	h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(60)
	m, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{DemandRetrySeconds: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && !m.Switched() && !m.Done(); i++ {
		tb.RunSeconds(0.05)
	}
	if !m.Switched() || m.Done() {
		t.Skip("no post-switchover window to degrade")
	}
	nic := tb.Net.NICByName("source")
	nic.SetLossRate(0.3, 0xfeed)
	tb.Eng.AfterSeconds(3, func() { nic.SetLossRate(0, 0) })
	if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
		t.Fatal("migration wedged under message loss")
	}
	if nic.MessagesLost() == 0 {
		t.Fatal("loss window dropped nothing; scenario is vacuous")
	}
	if h.Result.DemandRetries == 0 {
		t.Fatal("no demand request took the retry path despite losses")
	}
}
