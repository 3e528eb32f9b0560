package core

import (
	"testing"

	"agilemig/internal/cgroup"

	"agilemig/internal/blockdev"
	"agilemig/internal/dist"
	"agilemig/internal/guest"
	"agilemig/internal/host"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
	"agilemig/internal/workload"
)

const (
	gib  = int64(1) << 30
	mib  = int64(1) << 20
	gbps = int64(125_000_000)
)

// rig is a miniature version of the paper's testbed: source, destination,
// one VMD intermediate, and an external client host, all on 1 Gbps links.
type rig struct {
	eng       *sim.Engine
	net       *simnet.Network
	src, dst  *host.Host
	clientNIC *simnet.NIC
	v         *vmd.VMD
	vm        *guest.VM
	ns        *vmd.Namespace
	store     *workload.KVStore
	client    *workload.Client
	mig       *Migration
	result    *Result
}

type rigOpt struct {
	vmBytes      int64
	datasetBytes int64
	resBytes     int64
	busy         bool // attach a YCSB client
	opsPerSec    float64
	writeFrac    float64
	agileSwap    bool // per-VM VMD swap instead of shared SSD partition
}

func newRig(t *testing.T, o rigOpt) *rig {
	return newRigDestNIC(t, o, gbps)
}

// newRigDestNIC builds the rig with a custom destination NIC rate (the
// constrained-destination scenarios scatter-gather targets).
func newRigDestNIC(t *testing.T, o rigOpt, destNIC int64) *rig {
	t.Helper()
	eng := sim.NewEngine(42)
	net := simnet.New(eng)
	ssd := blockdev.Config{Name: "ssd", BytesPerSecond: 60 * mib, IOPS: 10_000}
	r := &rig{eng: eng, net: net}
	r.src = host.New(eng, net, host.Config{Name: "src", RAMBytes: 6 * gib, OSOverheadBytes: 200 * mib, NetBytesPerSec: gbps})
	r.dst = host.New(eng, net, host.Config{Name: "dst", RAMBytes: 6 * gib, OSOverheadBytes: 200 * mib, NetBytesPerSec: destNIC})
	r.src.ConfigureSharedSwap(ssd, 30*gib)
	r.dst.ConfigureSharedSwap(ssd, 30*gib)
	r.clientNIC = net.NewNIC("ext", gbps)

	r.v = vmd.New(eng, net)
	r.v.AddServer("inter", net.NewNIC("inter", gbps), 16*gib/mem.PageSize)
	r.src.SetVMDClient(r.v.NewClient("src", r.src.NIC(), 0))
	r.dst.SetVMDClient(r.v.NewClient("dst", r.dst.NIC(), 0))

	r.vm = guest.New(eng, "vm1", o.vmBytes)
	r.ns = r.v.CreateNamespace("vm1", r.vm.Pages())
	if o.agileSwap {
		r.ns.AttachTo(r.src.VMDClient())
		r.src.AddVM(r.vm, o.resBytes, host.VMDSwapBackend(r.ns, r.src.VMDClient()))
	} else {
		r.src.AddVM(r.vm, o.resBytes, r.src.SharedSwapBackend())
	}
	r.vm.Resume()
	if o.datasetBytes > 0 {
		r.store = workload.NewKVStore(r.vm, 64*mib, o.datasetBytes, 1024)
		r.store.Load()
	}
	if o.busy {
		cfg := workload.YCSB()
		if o.opsPerSec > 0 {
			cfg.MaxOpsPerSecond = o.opsPerSec
		}
		cfg.WriteFraction = o.writeFrac
		req := net.NewFlow("req", r.clientNIC, r.src.NIC(), 0)
		resp := net.NewFlow("resp", r.src.NIC(), r.clientNIC, 0)
		r.client = workload.NewClient(eng, cfg, r.store, dist.NewUniform(r.store.Records()), req, resp, eng.RNG().Split())
	}
	// Let load-time reclaim settle so the VM starts with its cold pages on
	// the swap device, like the paper's loaded Redis VMs.
	eng.RunSeconds(60)
	return r
}

// migrate launches the given technique and returns when it completes (or
// fails the test after a timeout).
func (r *rig) migrate(t *testing.T, tech Technique, timeoutS float64) *Result {
	t.Helper()
	r.start(tech, Tuning{}, nil)
	r.wait(t, timeoutS)
	return r.result
}

// start launches the given technique with the given tuning, recording into
// tr (nil records nothing).
func (r *rig) start(tech Technique, tun Tuning, tr *trace.Trace) *Migration {
	var backend = r.dst.SharedSwapBackend()
	if tech == Agile || tech == ScatterGather {
		backend = r.dstVMDBackend()
	}
	spec := Spec{
		VM:                   r.vm,
		Source:               r.src,
		Dest:                 r.dst,
		DestReservationBytes: r.vm.Group().ReservationBytes(),
		DestBackend:          backend,
		Namespace:            r.ns,
		Tuning:               tun,
		Trace:                tr,
		OnSwitchover: func() {
			if r.client != nil {
				req := r.net.NewFlow("req2", r.clientNIC, r.dst.NIC(), 0)
				resp := r.net.NewFlow("resp2", r.dst.NIC(), r.clientNIC, 0)
				r.client.SetFlows(req, resp)
			}
		},
		OnComplete: func(res *Result) { r.result = res },
	}
	r.mig = Start(r.eng, r.net, tech, spec)
	return r.mig
}

// wait steps the engine until the started migration completes, failing
// the test after timeoutS simulated seconds.
func (r *rig) wait(t *testing.T, timeoutS float64) {
	t.Helper()
	deadline := r.eng.Now() + sim.Time(r.eng.SecondsToTicks(timeoutS))
	for r.eng.Now() < deadline && !r.mig.Done() {
		r.eng.Step()
	}
	if !r.mig.Done() {
		t.Fatalf("%v migration did not complete within %.0fs (phase %v)", r.mig.tech, timeoutS, r.mig.state)
	}
}

func TestPreCopyIdleVM(t *testing.T) {
	// VM fits in its reservation: no swap, single round, ~memory-size data.
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 400 * mib, resBytes: 1 * gib})
	res := r.migrate(t, PreCopy, 120)
	if res.Rounds < 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// Full memory transferred: every page (incl. untouched) in full.
	wantMin := r.vm.MemBytes()
	if res.BytesTransferred < wantMin {
		t.Fatalf("transferred %d, want >= %d (full memory)", res.BytesTransferred, wantMin)
	}
	// At ~125 MB/s an idle 1 GiB VM takes ~9s.
	if res.TotalSeconds < 5 || res.TotalSeconds > 30 {
		t.Fatalf("idle 1 GiB pre-copy took %.1fs, want ~9s", res.TotalSeconds)
	}
	if !r.vm.Running() {
		t.Fatal("VM not running after migration")
	}
	if len(r.src.VMs()) != 0 {
		t.Fatal("source still hosts the VM")
	}
	if r.dst.VM("vm1") == nil {
		t.Fatal("destination does not host the VM")
	}
}

func TestPreCopySwappedPagesAreSwappedInFirst(t *testing.T) {
	// Reservation below dataset: cold pages sit on the SSD and must be
	// read back during migration.
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 800 * mib, resBytes: 400 * mib})
	readsBefore := r.src.SwapDevice().BytesRead()
	res := r.migrate(t, PreCopy, 300)
	swapReads := r.src.SwapDevice().BytesRead() - readsBefore
	if swapReads < 300*mib {
		t.Fatalf("only %d bytes swapped in during pre-copy; expected the cold ~400 MiB", swapReads)
	}
	if res.BytesTransferred < r.vm.MemBytes() {
		t.Fatal("pre-copy must transfer full memory")
	}
}

func TestPreCopyDirtyRetransmission(t *testing.T) {
	// A write-heavy workload forces multiple rounds and extra data.
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 400 * mib, resBytes: 1 * gib,
		busy: true, opsPerSec: 8000, writeFrac: 0.5})
	res := r.migrate(t, PreCopy, 300)
	if res.Rounds < 2 {
		t.Fatalf("write workload converged in %d rounds; expected retransmission rounds", res.Rounds)
	}
	if res.BytesTransferred <= r.vm.MemBytes() {
		t.Fatal("no retransmission overhead despite dirtying")
	}
}

func TestPostCopySwitchesImmediately(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 400 * mib, resBytes: 1 * gib})
	res := r.migrate(t, PostCopy, 120)
	switchDelay := sim.Seconds(res.Switchover-res.Start, r.eng.TickLen())
	if switchDelay > 2 {
		t.Fatalf("post-copy switchover after %.2fs, want well under 2s", switchDelay)
	}
	if res.DowntimeSeconds > 2 {
		t.Fatalf("post-copy downtime %.2fs", res.DowntimeSeconds)
	}
	// All memory eventually pushed.
	if res.PagesSent < int64(r.vm.Pages()) {
		t.Fatalf("pushed %d of %d pages", res.PagesSent, r.vm.Pages())
	}
}

func TestPostCopyDemandPaging(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 600 * mib, resBytes: 1 * gib,
		busy: true, opsPerSec: 5000})
	res := r.migrate(t, PostCopy, 300)
	if res.DemandRequests == 0 {
		t.Fatal("busy post-copy generated no demand-paging requests")
	}
	if res.PagesDemandServed == 0 {
		t.Fatal("no demand responses served")
	}
	// The client must keep completing ops after migration.
	before := r.client.OpsCompleted()
	r.eng.RunSeconds(5)
	if r.client.OpsCompleted() == before {
		t.Fatal("client dead after post-copy migration")
	}
}

func TestAgileSendsOffsetRecordsNotColdPages(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 800 * mib, resBytes: 400 * mib, agileSwap: true})
	swapped := int64(r.vm.Table().SwappedPages())
	res := r.migrate(t, Agile, 120)
	if res.OffsetRecords == 0 {
		t.Fatal("no offset records sent")
	}
	// Roughly the swapped set should travel by reference (±slack for churn).
	if res.OffsetRecords < swapped/2 {
		t.Fatalf("offset records %d, swapped pages at start %d", res.OffsetRecords, swapped)
	}
	// Data transferred ≈ resident memory only: well below full VM size.
	if res.BytesTransferred > r.vm.MemBytes()*3/4 {
		t.Fatalf("agile transferred %d bytes, want well under memory size %d", res.BytesTransferred, r.vm.MemBytes())
	}
	// No migration-driven swap-ins of cold pages at the source.
	if res.PagesSent > int64(r.vm.Pages())-res.OffsetRecords {
		t.Fatalf("agile sent %d full pages with %d offset records", res.PagesSent, res.OffsetRecords)
	}
}

func TestAgileColdPagesReachableFromDestination(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 800 * mib, resBytes: 400 * mib, agileSwap: true})
	r.migrate(t, Agile, 120)
	// Namespace must be attached at dst only.
	if r.ns.AttachedTo(r.src.VMDClient()) {
		t.Fatal("namespace still attached at source after completion")
	}
	if !r.ns.AttachedTo(r.dst.VMDClient()) {
		t.Fatal("namespace not attached at destination")
	}
	// Fault a cold page in at the destination.
	tb := r.vm.Table()
	var cold mem.PageID = -1
	tb.ForEach(func(p mem.PageID, s mem.PageState) {
		if cold == -1 && s == mem.StateSwapped {
			cold = p
		}
	})
	if cold == -1 {
		t.Fatal("no cold page at destination")
	}
	ok := false
	r.vm.Access(cold, false, func() { ok = true })
	r.eng.RunSeconds(5)
	if !ok {
		t.Fatal("cold page unreadable from destination")
	}
	if tb.State(cold) != mem.StateResident {
		t.Fatalf("cold page state %v after fault", tb.State(cold))
	}
}

func TestAgileFasterAndLeanerUnderPressure(t *testing.T) {
	// The paper's headline: under memory pressure Agile completes several
	// times faster than pre-copy and transfers the least data.
	run := func(tech Technique, agileSwap bool) *Result {
		// A mild write fraction models the server-side dirtying the paper's
		// "read-only" YCSB still causes (Redis bookkeeping): it is what
		// makes pre-copy retransmit.
		r := newRig(t, rigOpt{vmBytes: 2 * gib, datasetBytes: 1536 * mib, resBytes: 768 * mib,
			busy: true, opsPerSec: 10_000, writeFrac: 0.15, agileSwap: agileSwap})
		return r.migrate(t, tech, 1200)
	}
	pre := run(PreCopy, false)
	post := run(PostCopy, false)
	agile := run(Agile, true)

	if !(agile.TotalSeconds < post.TotalSeconds && post.TotalSeconds < pre.TotalSeconds) {
		t.Fatalf("migration time ordering wrong: pre %.1fs post %.1fs agile %.1fs",
			pre.TotalSeconds, post.TotalSeconds, agile.TotalSeconds)
	}
	if !(agile.BytesTransferred < post.BytesTransferred && post.BytesTransferred <= pre.BytesTransferred) {
		t.Fatalf("data ordering wrong: pre %d post %d agile %d",
			pre.BytesTransferred, post.BytesTransferred, agile.BytesTransferred)
	}
	if pre.TotalSeconds < 2*agile.TotalSeconds {
		t.Fatalf("agile %.1fs not substantially faster than pre-copy %.1fs", agile.TotalSeconds, pre.TotalSeconds)
	}
}

func TestDestinationStateConsistentAfterEachTechnique(t *testing.T) {
	for _, tc := range []struct {
		tech  Technique
		agile bool
	}{{PreCopy, false}, {PostCopy, false}, {Agile, true}} {
		r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 700 * mib, resBytes: 500 * mib, agileSwap: tc.agile})
		touchedBefore := r.vm.Table().Touched()
		r.migrate(t, tc.tech, 600)
		r.eng.RunSeconds(10)
		tb := r.vm.Table()
		// Every page the guest had touched must be accounted for at the
		// destination: resident, swapped, or (agile) known-zero/untouched
		// pages that were never populated.
		if tc.tech != Agile {
			if got := tb.Touched(); got < touchedBefore {
				t.Fatalf("%v: touched pages shrank %d -> %d", tc.tech, touchedBefore, got)
			}
		}
		// The destination cgroup must be respecting its reservation.
		g := r.dst.Group("vm1")
		slack := 2 * cgroupEvictSlack()
		if tb.InRAM() > int(g.ReservationBytes()/mem.PageSize)+slack {
			t.Fatalf("%v: dest in RAM %d pages exceeds reservation", tc.tech, tb.InRAM())
		}
		// And the VM must be live: a random access works.
		done := false
		if !r.vm.Access(100, true, func() { done = true }) {
			r.eng.RunSeconds(5)
			if !done {
				t.Fatalf("%v: access after migration hangs", tc.tech)
			}
		}
	}
}

func cgroupEvictSlack() int { return 256 }

func TestMigrationWithClientThroughputRecovers(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 800 * mib, resBytes: 400 * mib,
		busy: true, opsPerSec: 10_000, agileSwap: true})
	r.migrate(t, Agile, 600)
	r.eng.RunSeconds(30) // warm up at destination
	before := r.client.OpsCompleted()
	r.eng.RunSeconds(10)
	rate := float64(r.client.OpsCompleted()-before) / 10
	if rate < 100 {
		t.Fatalf("post-migration throughput %.0f ops/s; client effectively dead", rate)
	}
}

func TestPostCopySourceMemoryDrains(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 600 * mib, resBytes: 1 * gib})
	srcTable := r.vm.Table()
	r.migrate(t, PostCopy, 300)
	if srcTable.InRAM() != 0 {
		t.Fatalf("source residual still holds %d pages in RAM", srcTable.InRAM())
	}
}

func TestResultBytesMatchFlows(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 512 * mib, datasetBytes: 200 * mib, resBytes: 512 * mib})
	res := r.migrate(t, PreCopy, 120)
	// Idle single-round pre-copy: pages + CPU state.
	pages := int64(r.vm.Pages())
	want := pages*(mem.PageSize+16) + 8<<20
	if res.BytesTransferred != want {
		t.Fatalf("bytes %d, want %d", res.BytesTransferred, want)
	}
}

func TestAgileRequiresNamespace(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 512 * mib, datasetBytes: 100 * mib, resBytes: 512 * mib})
	defer func() {
		if recover() == nil {
			t.Fatal("agile without namespace did not panic")
		}
	}()
	Start(r.eng, r.net, Agile, Spec{VM: r.vm, Source: r.src, Dest: r.dst,
		DestReservationBytes: gib, DestBackend: r.dst.SharedSwapBackend()})
}

// dstVMDBackend returns the destination-side backend over the rig's
// namespace.
func (r *rig) dstVMDBackend() cgroup.SwapBackend {
	return host.VMDSwapBackend(r.ns, r.dst.VMDClient())
}
