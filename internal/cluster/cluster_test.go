package cluster

import (
	"testing"

	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/workload"
	"agilemig/internal/wss"
)

// smallConfig shrinks the testbed so tests run fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.HostRAMBytes = 6 * GiB
	cfg.IntermediateRAMBytes = 16 * GiB
	return cfg
}

func TestTestbedAssembly(t *testing.T) {
	tb := New(DefaultConfig())
	if tb.Source.Name() != "source" || tb.Dest.Name() != "dest" {
		t.Fatal("hosts misnamed")
	}
	if tb.Source.VMDClient() == nil || tb.Dest.VMDClient() == nil {
		t.Fatal("VMD clients missing")
	}
	if tb.Source.SwapDevice() == nil {
		t.Fatal("swap partition missing")
	}
}

func TestDeployAndLoad(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 2*GiB, 1*GiB, false)
	h.LoadDataset(1536 * MiB)
	tb.RunSeconds(60)
	if h.VM.Table().SwappedPages() == 0 {
		t.Fatal("load did not push cold pages to swap")
	}
	if got := h.VM.Table().InRAM(); int64(got)*4096 > 1*GiB {
		t.Fatal("reservation not enforced after load")
	}
}

func TestDuplicateDeployPanics(t *testing.T) {
	tb := New(smallConfig())
	tb.DeployVM("vm1", 1*GiB, 1*GiB, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate deploy did not panic")
		}
	}()
	tb.DeployVM("vm1", 1*GiB, 1*GiB, false)
}

func TestMigrateRetargetsClient(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 1*GiB, true)
	h.LoadDataset(512 * MiB)
	cfg := workload.YCSB()
	cfg.MaxOpsPerSecond = 3000
	h.AttachClient(cfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(30)
	if _, err := tb.Migrate(h, core.Agile, tb.Dest, 1*GiB, core.Tuning{}); err != nil {
		t.Fatal(err)
	}
	if tb.RunUntilMigrated(h, 300) != OutcomeCompleted {
		t.Fatal("migration did not complete")
	}
	// Client must keep making progress against the destination.
	tb.RunSeconds(5)
	before := h.Client.OpsCompleted()
	tb.RunSeconds(10)
	rate := float64(h.Client.OpsCompleted()-before) / 10
	if rate < 1000 {
		t.Fatalf("post-migration throughput %.0f ops/s", rate)
	}
	// And the traffic must hit the destination NIC.
	dstSent := tb.Dest.NIC().BytesSent()
	tb.RunSeconds(5)
	if tb.Dest.NIC().BytesSent() == dstSent {
		t.Fatal("no response traffic from destination after switchover")
	}
}

func TestAllTechniquesViaTestbed(t *testing.T) {
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		tb := New(smallConfig())
		h := tb.DeployVM("vm1", 1*GiB, 512*MiB, tech == core.Agile)
		h.LoadDataset(768 * MiB)
		tb.RunSeconds(60)
		if _, err := tb.Migrate(h, tech, tb.Dest, 512*MiB, core.Tuning{}); err != nil {
			t.Fatal(err)
		}
		if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
			t.Fatalf("%v did not complete", tech)
		}
		if h.Result == nil || h.Result.Technique != tech {
			t.Fatalf("%v result missing", tech)
		}
		if len(tb.Source.VMs()) != 0 {
			t.Fatalf("%v left the VM on the source", tech)
		}
	}
}

func TestRebalanceSource(t *testing.T) {
	tb := New(smallConfig())
	a := tb.DeployVM("a", 1*GiB, 512*MiB, false)
	b := tb.DeployVM("b", 1*GiB, 512*MiB, false)
	tb.RebalanceSource(0)
	// (6 GiB - 200 MiB) / 2 each.
	want := (6*GiB - 200*MiB) / 2
	if a.VM.Group().ReservationBytes() != want || b.VM.Group().ReservationBytes() != want {
		t.Fatalf("reservations %d/%d, want %d",
			a.VM.Group().ReservationBytes(), b.VM.Group().ReservationBytes(), want)
	}
	tb.RebalanceSource(1 * GiB)
	if a.VM.Group().ReservationBytes() != 1*GiB {
		t.Fatal("per-VM cap not applied")
	}
}

func TestTrackWSSIntegration(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 2*GiB, 2*GiB, true)
	h.LoadDataset(256 * MiB)
	cfg := workload.YCSB()
	cfg.MaxOpsPerSecond = 2000
	h.AttachClient(cfg, dist.NewUniform(h.Store.Records()))
	tcfg := wss.DefaultTrackerConfig()
	tr := h.TrackWSS(tcfg)
	tb.RunSeconds(400)
	est := tr.EstimateBytes()
	// The estimate should have shrunk from 2 GiB toward the ~256 MiB
	// working set (plus overshoot).
	if est > 1*GiB {
		t.Fatalf("tracker estimate still %d MiB after 400s", est/MiB)
	}
	if est < 128*MiB {
		t.Fatalf("tracker squeezed the VM to %d MiB despite an active working set", est/MiB)
	}
}

func TestAggregateOps(t *testing.T) {
	tb := New(smallConfig())
	for _, n := range []string{"a", "b"} {
		h := tb.DeployVM(n, 1*GiB, 1*GiB, false)
		h.LoadDataset(256 * MiB)
		cfg := workload.YCSB()
		cfg.MaxOpsPerSecond = 1000
		h.AttachClient(cfg, dist.NewUniform(h.Store.Records()))
	}
	tb.RunSeconds(10)
	if tb.AggregateOps() < 10_000 {
		t.Fatalf("aggregate ops %d, want ~20000", tb.AggregateOps())
	}
}

func TestDestNICOverride(t *testing.T) {
	cfg := smallConfig()
	cfg.DestNetBytesPerSec = cfg.NetBytesPerSec / 4
	tb := New(cfg)
	// A flow into the slow destination must be capped at the reduced rate.
	f := tb.Net.NewFlow("probe", tb.Source.NIC(), tb.Dest.NIC(), 0)
	f.Send(int64(cfg.NetBytesPerSec)) // one second of full line rate
	tb.RunSeconds(1.0)
	if d := f.Delivered(); d > cfg.NetBytesPerSec/3 {
		t.Fatalf("slow-dest flow delivered %d in 1s; NIC override not applied", d)
	}
}

func TestMultipleIntermediates(t *testing.T) {
	cfg := smallConfig()
	cfg.Intermediates = 3
	cfg.IntermediateRAMBytes = 4 * GiB
	tb := New(cfg)
	h := tb.DeployVM("vm1", 2*GiB, 512*MiB, true)
	h.LoadDataset(1536 * MiB)
	tb.RunSeconds(120)
	// The VM's cold pages should be spread across all three servers.
	if h.NS.Stored() == 0 {
		t.Fatal("nothing stored in the VMD")
	}
}

func TestScatterGatherViaTestbed(t *testing.T) {
	tb := New(smallConfig())
	h := tb.DeployVM("vm1", 1*GiB, 700*MiB, true)
	h.LoadDataset(900 * MiB)
	tb.RunSeconds(60)
	if _, err := tb.Migrate(h, core.ScatterGather, tb.Dest, 700*MiB, core.Tuning{}); err != nil {
		t.Fatal(err)
	}
	if tb.RunUntilMigrated(h, 600) != OutcomeCompleted {
		t.Fatal("scatter-gather did not complete")
	}
	if h.Result.PagesScattered == 0 {
		t.Fatal("no pages scattered")
	}
	if len(tb.Source.VMs()) != 0 || tb.Dest.VM("vm1") == nil {
		t.Fatal("placement wrong")
	}
}
