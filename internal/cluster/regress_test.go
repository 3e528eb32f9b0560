package cluster

// Regression tests for the concurrent-migration bugs the control plane
// exposed: double-starting a migration for a mid-migration VM, the
// aborted-reported-as-success conflation in RunUntilMigrated, and aborting
// under concurrent controller load.

import (
	"errors"
	"testing"

	"agilemig/internal/core"
	"agilemig/internal/ctlplane"
	"agilemig/internal/dist"
	"agilemig/internal/sim"
	"agilemig/internal/workload"
)

// TestDoubleMigrateRejected: starting a second migration for a VM whose
// first is still live must be rejected, not silently corrupt the shared
// page table. On main the second Start went through, AdoptGroup overwrote
// the live destination group, and two engines raced on one VM.
func TestDoubleMigrateRejected(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 3000
	h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(60)
	if _, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{}); err != nil {
		t.Fatal(err)
	}
	tb.RunSeconds(1) // migration live, not yet switched

	if _, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{}); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("second Migrate: got %v, want ErrMigrationActive", err)
	}
	if _, err := tb.Migrate(h, core.PostCopy, tb.Dest, 512*MiB, core.Tuning{}); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("second Migrate (post-copy): got %v, want ErrMigrationActive", err)
	}

	// The rejection left the live migration untouched: it completes, the
	// workload keeps running, and the VM can be migrated again afterwards.
	if got := tb.RunUntilMigrated(h, 600); got != OutcomeCompleted {
		t.Fatalf("first migration: %v", got)
	}
	before := h.Client.OpsCompleted()
	tb.RunSeconds(10)
	if h.Client.OpsCompleted() == before {
		t.Fatal("workload stalled after the rejected double migrate")
	}
	if _, err := tb.Migrate(h, core.Agile, tb.Source, 512*MiB, core.Tuning{}); err != nil {
		t.Fatalf("follow-on migration after completion rejected: %v", err)
	}
	if got := tb.RunUntilMigrated(h, 600); got != OutcomeCompleted {
		t.Fatalf("follow-on migration: %v", got)
	}
}

// TestLaunchRejectionPreservesCallback: a second ctlplane Launch for a VM
// whose migration is still live must fail without touching the live
// migration's completion callback. On main, Launch installed the new
// callback before Migrate's ErrMigrationActive check and nil-ed it
// on the error path, so the live migration completed with no callback —
// its controller object stayed Running forever and leaked its slot.
func TestLaunchRejectionPreservesCallback(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	tb.RunSeconds(60)
	fired := 0
	if _, err := tb.Launch("vm1", tb.Dest.Name(), core.Agile, 512*MiB, 0,
		func(*core.Result) { fired++ }); err != nil {
		t.Fatal(err)
	}
	tb.RunSeconds(1) // migration live, not yet switched
	_, err := tb.Launch("vm1", tb.Dest.Name(), core.Agile, 512*MiB, 0,
		func(*core.Result) { t.Error("rejected launch's callback fired") })
	if !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("second Launch: got %v, want ErrMigrationActive", err)
	}
	if got := tb.RunUntilMigrated(h, 600); got != OutcomeCompleted {
		t.Fatalf("first migration: %v", got)
	}
	if fired != 1 {
		t.Fatalf("live migration's callback fired %d times, want 1", fired)
	}
}

// TestMigrateRejectsBadDestination: nil and same-host destinations are
// configuration errors, reported as such.
func TestMigrateRejectsBadDestination(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	tb.RunSeconds(1)
	if _, err := tb.Migrate(h, core.Agile, nil, 512*MiB, core.Tuning{}); err == nil {
		t.Fatal("nil destination accepted")
	}
	if _, err := tb.Migrate(h, core.Agile, tb.Source, 512*MiB, core.Tuning{}); err == nil {
		t.Fatal("migration onto the VM's own host accepted")
	}
}

// TestRunUntilMigratedReportsAborted: a rolled-back migration is terminal
// but not a success. On main, RunUntilMigrated returned a bare bool that
// was true for an abort (Done() holds for rollbacks too), so experiment
// tables counted rolled-back runs as completed.
func TestRunUntilMigratedReportsAborted(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	tb.RunSeconds(60)
	m, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	// Abort half a second in, from inside the run loop.
	tb.Eng.AfterSeconds(0.5, func() {
		if !m.Switched() {
			m.Abort()
		}
	})
	got := tb.RunUntilMigrated(h, 600)
	if m.Switched() {
		t.Skip("migration switched over before the abort point")
	}
	if got != OutcomeAborted {
		t.Fatalf("got %v, want OutcomeAborted", got)
	}
}

// TestRunUntilMigratedReportsTimeout: running out of simulated time with
// the migration still in flight is the third, distinct outcome.
func TestRunUntilMigratedReportsTimeout(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 512*MiB, true)
	h.LoadDataset(768 * MiB)
	tb.RunSeconds(60)
	if _, err := tb.Migrate(h, core.Agile, tb.Dest, 512*MiB, core.Tuning{}); err != nil {
		t.Fatal(err)
	}
	got := tb.RunUntilMigrated(h, 0.05)
	if got != OutcomeTimeout {
		t.Fatalf("got %v, want OutcomeTimeout", got)
	}
	// The same wait, given time, completes.
	if got := tb.RunUntilMigrated(h, 600); got != OutcomeCompleted {
		t.Fatalf("got %v after full wait", got)
	}
}

// TestAbortUnderConcurrentControllerLoad drives several concurrent
// migrations through the control plane (sharing the source NIC and the
// VMD), aborts one mid-flight with push and demand traffic in the air, and
// checks the rollback loses nothing: the aborted VM keeps serving from the
// source while the surviving migrations complete. Run under -race this
// also exercises the shard-group workers.
func TestAbortUnderConcurrentControllerLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.HostRAMBytes = 8 * GiB
	cfg.Shards = 2
	tb := New(cfg)
	var handles []*VMHandle
	for _, name := range []string{"vm1", "vm2", "vm3", "vm4"} {
		h := tb.DeployVM(name, 1*GiB, 512*MiB, true)
		h.LoadDataset(768 * MiB)
		wcfg := workload.YCSB()
		wcfg.MaxOpsPerSecond = 2000
		h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
		handles = append(handles, h)
	}
	tb.RunSeconds(60)

	ctl := ctlplane.NewController(tb.Eng, tb, ctlplane.Config{
		Policy: ctlplane.GreedyFreeRAM{},
	})
	for _, h := range handles {
		ctl.Submit(ctlplane.Spec{
			VM:                   h.VM.Name(),
			Technique:            core.Agile,
			DestReservationBytes: 512 * MiB,
		})
	}
	// Abort vm2 a quarter second in — its push flow is streaming and,
	// post-warm, demand faults are in flight for the VMD-swapped cold
	// tail. Agile switches over fast, so the window is short.
	aborted := false
	tb.Eng.AfterSeconds(0.25, func() {
		aborted = ctl.Abort("mig-vm2", "operator cancel")
	})
	for i := 0; i < 600 && !ctl.Done(); i++ {
		tb.RunSeconds(1)
	}
	if !ctl.Done() {
		t.Fatal("controller did not settle")
	}
	// One second in, four concurrent 1 GiB transfers have not reached
	// switchover — the abort must have landed pre-switchover.
	if !aborted {
		t.Fatal("abort did not land pre-switchover")
	}
	m2 := ctl.Get("mig-vm2")
	if m2.Status.Phase != ctlplane.PhaseAborted {
		t.Fatalf("vm2 phase %s after abort", m2.Status.Phase)
	}
	// Zero lost pages: the source copy still serves every record, so the
	// workload makes progress against the full dataset.
	h2 := tb.VMHandleOf("vm2")
	if h2.Host() != tb.Source {
		t.Fatal("aborted VM not back on the source")
	}
	before := h2.Client.OpsCompleted()
	tb.RunSeconds(20)
	if h2.Client.OpsCompleted() == before {
		t.Fatal("aborted VM stopped serving from the source")
	}
	for _, name := range []string{"mig-vm1", "mig-vm3", "mig-vm4"} {
		if p := ctl.Get(name).Status.Phase; p != ctlplane.PhaseSucceeded {
			t.Fatalf("%s phase %s, want Succeeded", name, p)
		}
	}
}

// TestFleetSurfacesPerCellFailure: a cell whose source NIC is down past
// the switchover deadline must report an aborted row with a reason, and the
// evacuation result must distinguish the partial failure from success. On
// main the fleet counted the aborted cell as done and RunEvacuation
// returned a bare true.
func TestFleetSurfacesPerCellFailure(t *testing.T) {
	cfg := testFleetConfig(4, 2)
	cfg.MigrationTimeoutSeconds = 10
	cfg.Faults = (&sim.FaultPlan{}).LinkFlap("source", cfg.WarmupSeconds-1, 120)
	cfg.FaultCells = []int{2}
	f := NewFleet(cfg)
	res := f.RunEvacuation(600)
	if res.Success() {
		t.Fatal("partial failure reported as success")
	}
	if res.Evacuated != 3 || res.Aborted != 1 || res.Unfinished != 0 {
		t.Fatalf("result %+v", res)
	}
	rows := f.Rows()
	for i, r := range rows {
		if i == 2 {
			if r.Outcome != FleetOutcomeAborted {
				t.Fatalf("cell 2 outcome %q", r.Outcome)
			}
			if r.Reason == "" {
				t.Fatal("aborted cell has no reason")
			}
			continue
		}
		if r.Outcome != FleetOutcomeCompleted {
			t.Fatalf("cell %d outcome %q (%s)", i, r.Outcome, r.Reason)
		}
		if r.Reason != "" {
			t.Fatalf("completed cell %d carries reason %q", i, r.Reason)
		}
	}
}
