// Package cluster assembles the paper's three-host testbed (§V): a source
// and a destination host, an intermediate host contributing memory to the
// VMD, and an external client machine, all connected by 1 Gbps Ethernet.
// It provides the orchestration the evaluation scenarios share: deploying
// VMs with datasets and benchmark clients, migrating them with any of the
// three techniques, and rebalancing reservations after a migration.
package cluster

import (
	"errors"
	"fmt"

	"agilemig/internal/blockdev"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/guest"
	"agilemig/internal/host"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
	"agilemig/internal/workload"
	"agilemig/internal/wss"
)

// Byte-size helpers used throughout the scenarios.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// GbpsBytes is 1 Gbps expressed in bytes per second.
const GbpsBytes = int64(125_000_000)

// netLatency is the one-way propagation latency of every testbed link, in
// ticks. The hosts share one switched LAN, whose propagation delay is
// negligible next to serialization at 1 Gbps.
const netLatency sim.Duration = 0

// metricsSampleSeconds is the sim-time sampling interval of Config.Metrics.
const metricsSampleSeconds = 1

// Config shapes the testbed. DefaultConfig matches the paper's hardware.
type Config struct {
	Seed            uint64
	HostRAMBytes    int64 // source and destination RAM
	OSOverheadBytes int64
	NetBytesPerSec  int64
	// DestNetBytesPerSec overrides the destination host's NIC rate when
	// non-zero (constrained-destination scenarios).
	DestNetBytesPerSec   int64
	SSD                  blockdev.Config
	SwapPartitionBytes   int64
	Intermediates        int
	IntermediateRAMBytes int64
	// DisableFastForward forces the engine to step tick by tick instead of
	// skipping idle spans. Results are identical either way; the knob exists
	// for the fast-forward equivalence tests and timing comparisons.
	DisableFastForward bool

	// Shards selects the parallel kernel: the testbed runs inside a
	// sim.ShardGroup of this many engines (0 or 1 keeps the plain serial
	// engine). The paper's testbed is one network-arbitration domain —
	// simnet's max-min fairness couples every NIC — so all of its hosts
	// stay on shard 0 regardless of the shard count and extra shards idle;
	// results are byte-identical at any Shards and GOMAXPROCS, which the
	// golden equivalence tests assert. Genuinely partitioned workloads
	// (cluster.Fleet) spread their cells across the shards instead.
	Shards int

	// Replicas is the VMD replication factor K: every swapped page is
	// stored on K distinct intermediate servers, so a server crash loses
	// nothing while K-1 others survive. 0 or 1 disables replication (the
	// default, and the paper's configuration).
	Replicas int
	// Faults, when non-empty, is the deterministic fault schedule injected
	// into the run: server crashes/restarts, NIC link flaps and
	// message-loss windows. A nil or empty plan arms nothing — the run is
	// byte-identical to one built without fault support at all.
	Faults *sim.FaultPlan
	// VMD selects the store's v2 mechanisms (batched transfers, readahead
	// prefetch, tiering, consistent-hash placement). The zero value is the
	// flat v1 store, byte-identical to builds without the field.
	VMD vmd.StoreConfig

	// Trace, when non-nil, receives events from every subsystem of the
	// testbed: simnet flow open/close, cgroup resizes, VMD demand reads,
	// WSS convergence, and migration phases. Nil (the default) keeps every
	// emitter on its zero-overhead path.
	Trace *trace.Trace
	// Metrics, when non-nil, collects host/VM/device gauges and counters,
	// sampled every metricsSampleSeconds into time series.
	Metrics *metrics.Registry
}

// DefaultConfig returns the §V testbed: 23 GB hosts (boot-limited), 200 MB
// host OS, 1 Gbps Ethernet, a 30 GB swap partition on a SATA-era SSD, and
// one intermediate host for the VMD.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		HostRAMBytes:    23 * GiB,
		OSOverheadBytes: 200 * MiB,
		NetBytesPerSec:  GbpsBytes,
		SSD: blockdev.Config{
			Name: "crucial-ssd",
			// Sustained mixed random 4K on a 2013-era 128 GB SATA SSD
			// whose swap partition sees interleaved reads and writes:
			// well below the datasheet sequential numbers.
			BytesPerSecond: 90 * MiB,
			IOPS:           10_000,
		},
		SwapPartitionBytes:   30 * GiB,
		Intermediates:        1,
		IntermediateRAMBytes: 100 * GiB,
	}
}

// Testbed is the assembled cluster.
type Testbed struct {
	Cfg       Config
	Eng       *sim.Engine
	Net       *simnet.Network
	Source    *host.Host
	Dest      *host.Host
	ClientNIC *simnet.NIC
	VMD       *vmd.VMD

	// group is non-nil when Cfg.Shards > 1: Eng is then its shard-0 engine
	// and runs are driven through the group's window scheduler.
	group *sim.ShardGroup
	// cell is the Fleet cell name prefixing every component name ("" for
	// the paper testbed; see newTestbed).
	cell string

	// extra holds hosts added beyond the paper's source/dest pair (drain
	// scenarios with several candidate destinations), in creation order.
	extra []*host.Host

	vms map[string]*VMHandle
}

// New builds a testbed.
func New(cfg Config) *Testbed {
	var eng *sim.Engine
	var group *sim.ShardGroup
	if cfg.Shards > 1 {
		group = sim.NewShardGroup(cfg.Seed, cfg.Shards)
		eng = group.Engine(0)
		if cfg.DisableFastForward {
			for i := 0; i < group.Shards(); i++ {
				group.Engine(i).SetFastForward(false)
			}
		}
	} else {
		eng = sim.NewEngine(cfg.Seed)
		if cfg.DisableFastForward {
			eng.SetFastForward(false)
		}
	}
	tb := newTestbed(eng, cfg, "")
	tb.group = group
	return tb
}

// newTestbed wires a testbed onto eng. cell == "" is the paper testbed,
// which owns eng. A non-empty cell is one Fleet cell sharing its shard's
// engine with other cells: every host, NIC, VMD client and server name
// carries the cell+"-" prefix, and fault-plan targets resolve with it.
//
// A testbed that shares its engine must not draw from the engine's master
// stream: the draws would then depend on construction order and on which
// shard the cell landed on. A cell therefore seeds its client stream and
// its loss stream by name, from (Seed, cell+"/client") and
// (Seed, cell+"/loss"), where the paper testbed splits the master stream
// and XORs the seed. A cell also leaves the network emitter off: its actor
// is the fixed "net", which would collide across cells in a merged
// timeline.
func newTestbed(eng *sim.Engine, cfg Config, cell string) *Testbed {
	net := simnet.New(eng)
	if cfg.Trace != nil && cell == "" {
		net.SetTrace(cfg.Trace)
	}
	tb := &Testbed{
		Cfg:  cfg,
		Eng:  eng,
		Net:  net,
		cell: cell,
		vms:  make(map[string]*VMHandle),
	}
	tb.Source = host.New(eng, net, host.Config{
		Name: tb.name("source"), RAMBytes: cfg.HostRAMBytes,
		OSOverheadBytes: cfg.OSOverheadBytes, NetBytesPerSec: cfg.NetBytesPerSec,
	})
	destNet := cfg.NetBytesPerSec
	if cfg.DestNetBytesPerSec > 0 {
		destNet = cfg.DestNetBytesPerSec
	}
	tb.Dest = host.New(eng, net, host.Config{
		Name: tb.name("dest"), RAMBytes: cfg.HostRAMBytes,
		OSOverheadBytes: cfg.OSOverheadBytes, NetBytesPerSec: destNet,
	})
	tb.Source.ConfigureSharedSwap(cfg.SSD, cfg.SwapPartitionBytes)
	tb.Dest.ConfigureSharedSwap(cfg.SSD, cfg.SwapPartitionBytes)
	if cfg.Trace != nil || cfg.Metrics != nil {
		// After ConfigureSharedSwap so the swap devices register too.
		tb.Source.SetObserver(cfg.Trace, cfg.Metrics)
		tb.Dest.SetObserver(cfg.Trace, cfg.Metrics)
	}
	tb.ClientNIC = net.NewNIC(tb.name("clients"), cfg.NetBytesPerSec)

	tb.VMD = vmd.New(eng, net)
	if cfg.Trace != nil || cfg.Metrics != nil {
		tb.VMD.SetObserver(cfg.Trace, cfg.Metrics)
	}
	tb.VMD.Configure(cfg.VMD)
	if cfg.Replicas > 1 {
		tb.VMD.SetReplicas(cfg.Replicas)
	}
	for i := 0; i < cfg.Intermediates; i++ {
		name := tb.name(fmt.Sprintf("inter%d", i+1))
		nic := net.NewNIC(name, cfg.NetBytesPerSec)
		tb.VMD.AddServer(name, nic, int64(mem.BytesToPages(cfg.IntermediateRAMBytes)))
	}
	tb.Source.SetVMDClient(tb.VMD.NewClient(tb.Source.Name(), tb.Source.NIC(), netLatency))
	tb.Dest.SetVMDClient(tb.VMD.NewClient(tb.Dest.Name(), tb.Dest.NIC(), netLatency))
	if cfg.VMD.Tiers.Enabled {
		// The compressed-RAM tier absorbs the migrated-to host's cold pages;
		// bulk migration writes bypass it (their point is to leave the host).
		tb.Dest.VMDClient().SetLocalTier(true)
	}
	// Pool exhaustion degrades to the writing host's local swap partition
	// (the stream is created lazily, so fault-free runs are untouched).
	tb.Source.VMDClient().AttachSpill(tb.Source.SwapDevice())
	tb.Dest.VMDClient().AttachSpill(tb.Dest.SwapDevice())
	if !cfg.Faults.Empty() {
		tb.VMD.EnableFaultTolerance(vmd.DefaultFaultTimeout)
		lossSeed := cfg.Seed ^ 0x9e3779b97f4a7c15
		if cell != "" {
			lossSeed = sim.SeedForName(cfg.Seed, cell+"/loss")
		}
		tb.applyFaultPlan(cfg.Faults, lossSeed)
	}
	if cfg.Metrics != nil {
		net.RegisterMetrics(cfg.Metrics)
		cfg.Metrics.StartSampling(eng, metricsSampleSeconds)
	}
	return tb
}

// name prefixes a role name ("source", "inter1", ...) with the testbed's
// cell, if it has one.
func (tb *Testbed) name(role string) string {
	if tb.cell == "" {
		return role
	}
	return tb.cell + "-" + role
}

// applyFaultPlan resolves the schedule's targets (servers for
// crash/restart, NICs for link and loss events) within the testbed's cell
// and arms one engine event per entry. Unknown targets panic at build
// time: a fault plan that names nothing is a scenario bug, not a runtime
// condition. The loss draws come from lossSeed, a dedicated stream, so
// arming a loss window never perturbs the workload RNGs.
func (tb *Testbed) applyFaultPlan(plan *sim.FaultPlan, lossSeed uint64) {
	for _, ev := range plan.Sorted() {
		ev := ev
		target := tb.name(ev.Target)
		switch ev.Kind {
		case sim.FaultCrash, sim.FaultRestart:
			srv := tb.VMD.ServerByName(target)
			if srv == nil {
				panic("cluster: fault plan names unknown VMD server " + ev.Target)
			}
			if ev.Kind == sim.FaultCrash {
				tb.Eng.AfterSeconds(ev.At, srv.Crash)
			} else {
				tb.Eng.AfterSeconds(ev.At, srv.Restart)
			}
		case sim.FaultLinkDown, sim.FaultLinkUp:
			nic := tb.Net.NICByName(target)
			if nic == nil {
				panic("cluster: fault plan names unknown NIC " + ev.Target)
			}
			down := ev.Kind == sim.FaultLinkDown
			tb.Eng.AfterSeconds(ev.At, func() { nic.SetDown(down) })
		case sim.FaultLossStart, sim.FaultLossEnd:
			nic := tb.Net.NICByName(target)
			if nic == nil {
				panic("cluster: fault plan names unknown NIC " + ev.Target)
			}
			rate := 0.0
			if ev.Kind == sim.FaultLossStart {
				rate = ev.Rate
			}
			tb.Eng.AfterSeconds(ev.At, func() { nic.SetLossRate(rate, lossSeed) })
		}
	}
}

// AddHost adds a fully wired host beyond the paper's source/dest pair: a
// NIC on the shared network, a shared swap partition on the testbed's SSD
// model, a VMD client with local-spill attached, and (when the testbed
// observes) the trace/metrics hookup — everything Migrate needs to target
// it as a destination. Drain scenarios use this to model several candidate
// destinations with heterogeneous RAM and NIC rates.
func (tb *Testbed) AddHost(name string, ramBytes, netBytesPerSec int64) *host.Host {
	if tb.HostByName(name) != nil {
		panic("cluster: duplicate host " + name)
	}
	h := host.New(tb.Eng, tb.Net, host.Config{
		Name: name, RAMBytes: ramBytes,
		OSOverheadBytes: tb.Cfg.OSOverheadBytes, NetBytesPerSec: netBytesPerSec,
	})
	h.ConfigureSharedSwap(tb.Cfg.SSD, tb.Cfg.SwapPartitionBytes)
	if tb.Cfg.Trace != nil || tb.Cfg.Metrics != nil {
		h.SetObserver(tb.Cfg.Trace, tb.Cfg.Metrics)
	}
	h.SetVMDClient(tb.VMD.NewClient(name, h.NIC(), netLatency))
	if tb.Cfg.VMD.Tiers.Enabled {
		h.VMDClient().SetLocalTier(true)
	}
	h.VMDClient().AttachSpill(h.SwapDevice())
	tb.extra = append(tb.extra, h)
	return h
}

// Hosts returns every host in the testbed — source, dest, then any added
// via AddHost — in creation order.
func (tb *Testbed) Hosts() []*host.Host {
	out := make([]*host.Host, 0, 2+len(tb.extra))
	out = append(out, tb.Source, tb.Dest)
	out = append(out, tb.extra...)
	return out
}

// HostByName returns the named host, or nil.
func (tb *Testbed) HostByName(name string) *host.Host {
	for _, h := range tb.Hosts() {
		if h.Name() == name {
			return h
		}
	}
	return nil
}

// RunSeconds advances simulated time.
func (tb *Testbed) RunSeconds(s float64) {
	if tb.group != nil {
		tb.group.RunSeconds(s)
		return
	}
	tb.Eng.RunSeconds(s)
}

// ShardGroup returns the parallel kernel driving the testbed, or nil when
// it runs on the plain serial engine (Cfg.Shards <= 1).
func (tb *Testbed) ShardGroup() *sim.ShardGroup { return tb.group }

// VMHandle bundles a deployed VM with its swap namespace, dataset, client
// and migration state.
type VMHandle struct {
	tb         *Testbed
	VM         *guest.VM
	NS         *vmd.Namespace
	Store      *workload.KVStore
	Client     *workload.Client
	Tracker    *wss.Tracker
	Migration  *core.Migration
	Result     *core.Result
	useVMDSwap bool

	// curHost is the host the VM currently executes on; it advances to the
	// migration destination at switchover.
	curHost *host.Host
	// retargets counts client-flow retargetings, for unique flow names when
	// a VM migrates more than once.
	retargets int
	// onDone, when set, fires once after the next migration's OnComplete
	// (the control plane's completion callback).
	onDone func(*core.Result)

	srcFlows [2]*simnet.Flow // client <-> source
	dstFlows [2]*simnet.Flow // client <-> dest
}

// Host returns the host the VM currently executes on.
func (h *VMHandle) Host() *host.Host { return h.curHost }

// DeployVM places a VM on the source host. With vmdSwap the VM gets a
// private VMD namespace as its swap device (the Agile configuration);
// otherwise it shares the source's SSD partition (the pre-/post-copy
// configuration).
func (tb *Testbed) DeployVM(name string, memBytes, reservationBytes int64, vmdSwap bool) *VMHandle {
	if _, dup := tb.vms[name]; dup {
		panic("cluster: duplicate VM " + name)
	}
	h := &VMHandle{tb: tb, useVMDSwap: vmdSwap, curHost: tb.Source}
	h.VM = guest.New(tb.Eng, name, memBytes)
	h.NS = tb.VMD.CreateNamespace(name, h.VM.Pages())
	if vmdSwap {
		h.NS.AttachTo(tb.Source.VMDClient())
		tb.Cfg.Trace.Emitter(trace.ScopeVM, name).
			Emit(tb.Eng.NowSeconds(), trace.NamespaceAttach, "namespace attached at source (deploy)")
		tb.Source.AddVM(h.VM, reservationBytes, host.VMDSwapBackend(h.NS, tb.Source.VMDClient()))
	} else {
		tb.Source.AddVM(h.VM, reservationBytes, tb.Source.SharedSwapBackend())
	}
	h.VM.Resume()
	tb.vms[name] = h
	return h
}

// VMs returns all deployed handles (map keyed by VM name).
func (tb *Testbed) VMs() map[string]*VMHandle { return tb.vms }

// VMHandleOf returns the handle for a VM name, or nil.
func (tb *Testbed) VMHandleOf(name string) *VMHandle { return tb.vms[name] }

// LoadDataset lays a key-value dataset into the VM (1 KiB records) and
// bulk-populates it. Run the simulation afterwards to let reclaim push the
// excess to the swap device.
func (h *VMHandle) LoadDataset(datasetBytes int64) *workload.KVStore {
	// Leave the low ~3% of guest memory to the guest kernel and server
	// binaries; the dataset sits above it.
	offset := h.VM.MemBytes() / 32
	offset -= offset % 4096
	if offset+datasetBytes > h.VM.MemBytes() {
		datasetBytes = h.VM.MemBytes() - offset
	}
	h.Store = workload.NewKVStore(h.VM, offset, datasetBytes, 1024)
	h.Store.Load()
	return h.Store
}

// AttachClient runs a benchmark client on the external client host against
// the VM's dataset.
func (h *VMHandle) AttachClient(cfg workload.ClientConfig, d dist.Dist) *workload.Client {
	tb := h.tb
	h.srcFlows[0] = tb.Net.NewFlow("app:req:"+h.VM.Name(), tb.ClientNIC, tb.Source.NIC(), netLatency)
	h.srcFlows[1] = tb.Net.NewFlow("app:resp:"+h.VM.Name(), tb.Source.NIC(), tb.ClientNIC, netLatency)
	var rng *sim.RNG
	if tb.cell == "" {
		rng = tb.Eng.RNG().Split()
	} else {
		rng = sim.NewRNG(sim.SeedForName(tb.Cfg.Seed, tb.cell+"/client")) // see newTestbed
	}
	h.Client = workload.NewClient(tb.Eng, cfg, h.Store, d, h.srcFlows[0], h.srcFlows[1], rng)
	return h.Client
}

// TrackWSS starts the transparent working-set tracker on the VM.
func (h *VMHandle) TrackWSS(cfg wss.TrackerConfig) *wss.Tracker {
	h.Tracker = wss.NewTracker(h.tb.Eng, h.VM.Group(), cfg)
	h.Tracker.SetEmitter(h.tb.Cfg.Trace.Emitter(trace.ScopeVM, h.VM.Name()))
	return h.Tracker
}

// ErrMigrationActive is returned (wrapped with the VM name) when Migrate is
// asked to start a migration for a VM whose previous migration has not
// finished: two concurrent engines would share one page table and corrupt
// it. Callers that want queueing implement it above this layer (ctlplane's
// controller holds such requests Pending).
var ErrMigrationActive = errors.New("migration already in progress")

// Migrate starts a live migration of the VM from its current host to dest
// (any other host of the testbed) with the given technique, destination
// reservation and engine tuning. The benchmark client (if any) retargets
// its flows at switchover, exactly as an external load balancer would
// redirect traffic. A nil or same-host dest is an error, and so is a VM
// whose previous migration is still live (ErrMigrationActive).
func (tb *Testbed) Migrate(h *VMHandle, tech core.Technique, dest *host.Host, destReservationBytes int64, tun core.Tuning) (*core.Migration, error) {
	if h.Migration != nil && !h.Migration.Done() {
		return nil, fmt.Errorf("cluster: VM %s: %w", h.VM.Name(), ErrMigrationActive)
	}
	src := h.curHost
	if dest == nil || dest == src {
		return nil, fmt.Errorf("cluster: VM %s: invalid destination", h.VM.Name())
	}
	if !tb.Cfg.Faults.Empty() && tun.DemandRetrySeconds == 0 {
		// A faulty cluster needs the demand-paging retry path armed, or a
		// single lost request wedges the destination forever.
		tun.DemandRetrySeconds = 1.0
	}
	// Only Agile and scatter-gather attach the per-VM swap device at the
	// destination; a pre/post-copy destination must evict to its own
	// shared partition even when the VM swaps to the VMD at the source
	// (the source is still live and owns the namespace's offsets — dest
	// writes through the never-attached client used to panic the VMD).
	var backend = dest.SharedSwapBackend()
	if (tech == core.Agile || tech == core.ScatterGather) && !tun.NoRemoteSwap {
		backend = host.VMDSwapBackend(h.NS, dest.VMDClient())
	}
	h.Result = nil
	spec := core.Spec{
		VM:                   h.VM,
		Source:               src,
		Dest:                 dest,
		DestReservationBytes: destReservationBytes,
		DestBackend:          backend,
		Namespace:            h.NS,
		Latency:              netLatency,
		Tuning:               tun,
		Trace:                tb.Cfg.Trace,
		Metrics:              tb.Cfg.Metrics,
		OnSwitchover: func() {
			h.curHost = dest
			if h.Client != nil {
				h.retargets++
				req := fmt.Sprintf("app:req%d:%s", h.retargets+1, h.VM.Name())
				resp := fmt.Sprintf("app:resp%d:%s", h.retargets+1, h.VM.Name())
				h.dstFlows[0] = tb.Net.NewFlow(req, tb.ClientNIC, dest.NIC(), netLatency)
				h.dstFlows[1] = tb.Net.NewFlow(resp, dest.NIC(), tb.ClientNIC, netLatency)
				h.Client.SetFlows(h.dstFlows[0], h.dstFlows[1])
			}
		},
		OnComplete: func(res *core.Result) {
			h.Result = res
			if h.onDone != nil {
				cb := h.onDone
				h.onDone = nil
				cb(res)
			}
		},
	}
	h.Migration = core.Start(tb.Eng, tb.Net, tech, spec)
	return h.Migration, nil
}

// Outcome is the typed result of waiting for a migration: the three ways a
// wait can end are distinct conditions — a completed hand-off, a rollback
// to the source, and a wait that simply ran out of simulated time with the
// migration still in flight.
type Outcome int

// The possible RunUntilMigrated outcomes.
const (
	OutcomeCompleted Outcome = iota // source drained; migration finished
	OutcomeAborted                  // rolled back to the source pre-switchover
	OutcomeTimeout                  // still in flight when the deadline hit
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeAborted:
		return "aborted"
	case OutcomeTimeout:
		return "timeout"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// RunUntilMigrated advances the simulation until the handle's migration
// reaches a terminal state or the timeout (simulated seconds) elapses, and
// reports which of the three it was. An aborted migration is terminal —
// historically it was reported as success (Done() is true for a rollback
// too), so experiment tables counted rolled-back runs as completed.
func (tb *Testbed) RunUntilMigrated(h *VMHandle, timeoutSeconds float64) Outcome {
	if h.Migration == nil {
		panic("cluster: no migration in progress for " + h.VM.Name())
	}
	deadline := tb.Eng.Now() + sim.Time(tb.Eng.SecondsToTicks(timeoutSeconds))
	if tb.group != nil {
		// The testbed's group carries no inter-shard links (everything lives
		// on shard 0), so the early-exit predicate is sound and shard 0's
		// advance loop below is replayed instruction for instruction.
		tb.group.RunWhile(deadline, func() bool { return !h.Migration.Done() })
	} else {
		for tb.Eng.Now() < deadline && !h.Migration.Done() {
			tb.Eng.Advance(deadline)
		}
	}
	switch {
	case h.Migration.Aborted():
		return OutcomeAborted
	case h.Migration.Done():
		return OutcomeCompleted
	default:
		return OutcomeTimeout
	}
}

// RebalanceSource divides the source host's VM memory budget equally among
// the VMs still hosted there, capped per VM — what the cluster manager
// does once a migration has freed memory (§V-A: "the source host can
// accommodate the remaining three VMs in its memory").
func (tb *Testbed) RebalanceSource(perVMCapBytes int64) {
	names := tb.Source.VMs()
	if len(names) == 0 {
		return
	}
	budget := tb.Cfg.HostRAMBytes - tb.Cfg.OSOverheadBytes
	share := budget / int64(len(names))
	if perVMCapBytes > 0 && share > perVMCapBytes {
		share = perVMCapBytes
	}
	for _, n := range names {
		tb.Source.Group(n).SetReservationBytes(share)
	}
}

// AggregateOps sums completed operations across all deployed clients.
func (tb *Testbed) AggregateOps() int64 {
	var total int64
	for _, h := range tb.vms {
		if h.Client != nil {
			total += h.Client.OpsCompleted()
		}
	}
	return total
}
