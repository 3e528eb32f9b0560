package main

import (
	"fmt"
	"time"

	"agilemig/internal/cgroup"
	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/ctlplane"
	"agilemig/internal/dist"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/workload"
)

// Workloads, in the order the self-test runs them. README.md gives the
// reason for each and the layers it is meant to load.
var workloadNames = []string{"agile_cold", "precopy_dirty", "host_drain", "fleet_evac"}

// params are the inputs one run of a workload is built from.
type params struct {
	seed uint64
	// scale multiplies every memory size and simulated duration of the
	// workload's shape; the self-test runs a tiny fraction.
	scale float64
}

func (p params) bytes(b int64) int64 {
	v := int64(float64(b) * p.scale)
	const page = 4096
	if v < page {
		v = page
	}
	return v - v%page
}

func (p params) seconds(s float64) float64 {
	if v := s * p.scale; v >= 1 {
		return v
	}
	return 1
}

// bench is one workload: build runs every constructor up to the warm-up,
// warm runs the pre-migration warm-up, migrate submits the migrations and
// runs until all are terminal, and collect reads the results from public
// accessors.
type bench interface {
	build()
	warm()
	migrate()
	// ops is the operations the clients have completed so far (0 where
	// the clients are not reachable through public accessors).
	ops() int64
	collect(rec *record)
}

// Every workload but host_drain runs at half its shape's sizes and
// durations, which keeps one repetition near two seconds of host time so
// that a run's medians are taken over enough repetitions; halving keeps
// each workload's character (rounds, page mix, shares) intact.
const halfSize = 0.5

func newBench(name string, p params, tr *tracer) (bench, error) {
	switch name {
	case "agile_cold":
		// The quickstart VM under the paper's method, moved back and forth
		// so one set-up serves several Agile migrations.
		p.scale *= halfSize
		return &testbedBench{p: p, tr: tr, shape: testbedShape{
			vms: 1, vmMem: 2 * cluster.GiB, resv: 768 * cluster.MiB, dataset: 1536 * cluster.MiB,
			vmdSwap: true, opsPerSec: 10_000, writeFraction: 0.05,
			tech: core.Agile, pins: []string{"dest", "source", "dest", "source"},
		}}, nil
	case "precopy_dirty":
		// The same VM on the source's shared SSD partition, under YCSB's
		// default of one dirtied record page per operation.
		p.scale *= halfSize
		return &testbedBench{p: p, tr: tr, shape: testbedShape{
			vms: 1, vmMem: 2 * cluster.GiB, resv: 768 * cluster.MiB, dataset: 1536 * cluster.MiB,
			opsPerSec: 10_000, writeFraction: 1,
			tech: core.PreCopy, pins: []string{"dest"},
		}}, nil
	case "host_drain":
		// The drain experiment's destination-swap run: six loaded VMs leave
		// a 10 Gbps source for four 1 Gbps hosts, four at a time, each
		// capped at half a destination NIC.
		return &testbedBench{p: p, tr: tr, shape: testbedShape{
			vms: 6, vmMem: 2 * cluster.GiB, resv: 1536 * cluster.MiB, dataset: 1536 * cluster.MiB,
			vmdSwap: true, opsPerSec: 4000, writeFraction: 1,
			tech: core.Agile, pins: []string{""}, drain: true,
		}}, nil
	case "fleet_evac":
		p.scale *= halfSize
		return &fleetBench{p: p, tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// testbedShape fixes one testbed workload.
type testbedShape struct {
	vms                  int
	vmMem, resv, dataset int64
	vmdSwap              bool
	opsPerSec            float64
	writeFraction        float64
	tech                 core.Technique
	// pins holds one destination per migration wave ("" lets the
	// placement policy choose); each wave moves every VM.
	pins []string
	// drain selects the host-drain cluster: a 10 Gbps source, three extra
	// 1 Gbps candidates, destination-swap placement, four concurrent
	// migrations under half-NIC caps.
	drain bool
}

type testbedBench struct {
	p     params
	tr    *tracer
	shape testbedShape

	tb     *cluster.Testbed
	lane   *lane // nil when untraced
	vms    []*cluster.VMHandle
	ctl    *ctlplane.Controller
	shim   *clusterShim
	policy *placementShim // nil when every migration is pinned

	// groups holds every cgroup a VM has had, source and destinations.
	groups    []*cgroup.Group
	throttled int // high-water mark of any group's throttled-fault queue
}

func (b *testbedBench) build() {
	s, p := b.shape, b.p
	cfg := cluster.DefaultConfig()
	cfg.Seed = p.seed
	cfg.HostRAMBytes = p.bytes(6 * cluster.GiB)
	cfg.IntermediateRAMBytes = p.bytes(16 * cluster.GiB)
	if s.drain {
		cfg.HostRAMBytes = p.bytes(16 * cluster.GiB)
		cfg.IntermediateRAMBytes = p.bytes(48 * cluster.GiB)
		cfg.NetBytesPerSec = 10 * cluster.GbpsBytes
		cfg.DestNetBytesPerSec = cluster.GbpsBytes
	}
	b.tb = cluster.New(cfg)
	if s.drain {
		b.tb.AddHost("nodeb", p.bytes(8*cluster.GiB), cluster.GbpsBytes)
		b.tb.AddHost("nodec", p.bytes(6*cluster.GiB), cluster.GbpsBytes)
		b.tb.AddHost("noded", p.bytes(6*cluster.GiB), cluster.GbpsBytes)
	}
	for i := 0; i < s.vms; i++ {
		name := fmt.Sprintf("vm%d", i+1)
		h := b.tb.DeployVM(name, p.bytes(s.vmMem), p.bytes(s.resv), s.vmdSwap)
		h.LoadDataset(p.bytes(s.dataset))
		wcfg := workload.YCSB()
		wcfg.MaxOpsPerSecond = s.opsPerSec
		wcfg.WriteFraction = s.writeFraction
		h.AttachClient(wcfg, dist.NewUniform(h.Store.Records()))
		b.vms = append(b.vms, h)
		b.groups = append(b.groups, b.tb.Source.Group(name))
	}
	b.shim = &clusterShim{bench: b}
	if b.tr != nil {
		b.lane = b.tr.attach(b.tb.Eng, true)
		b.lane.sample = b.sampleThrottled
	}
}

func (b *testbedBench) sampleThrottled() {
	for _, g := range b.groups {
		if n := g.ThrottledFaults(); n > b.throttled {
			b.throttled = n
		}
	}
}

func (b *testbedBench) warm() {
	eng := b.tb.Eng
	advance(eng, b.lane, eng.Now()+sim.Time(eng.SecondsToTicks(b.p.seconds(120))), nil)
}

func (b *testbedBench) migrate() {
	s, p := b.shape, b.p
	cfg := ctlplane.Config{MaxConcurrent: 1}
	if s.drain {
		b.policy = &placementShim{inner: ctlplane.DestinationSwap{}, tr: b.tr}
		cfg = ctlplane.Config{MaxConcurrent: 4, Policy: b.policy}
	}
	b.ctl = ctlplane.NewController(b.tb.Eng, b.shim, cfg)
	for _, pin := range s.pins {
		for _, h := range b.vms {
			spec := ctlplane.Spec{
				VM:                   h.VM.Name(),
				Technique:            s.tech,
				DestHost:             pin,
				DestReservationBytes: p.bytes(s.resv),
			}
			if s.drain {
				spec.BandwidthCapBytesPerSec = cluster.GbpsBytes / 2
				spec.TimeoutSeconds = p.seconds(1500)
			}
			b.ctl.Submit(spec)
		}
		eng := b.tb.Eng
		deadline := eng.Now() + sim.Time(eng.SecondsToTicks(4000))
		advance(eng, b.lane, deadline, b.ctl.Done)
	}
}

func (b *testbedBench) ops() int64 {
	var n int64
	for _, h := range b.vms {
		n += h.Client.OpsCompleted()
	}
	return n
}

func (b *testbedBench) collect(rec *record) {
	c := rec.Counts
	var stalled, faults int64
	var vmPages int
	for _, h := range b.vms {
		_, _, st := h.Client.Stats()
		stalled += st
		faults += h.VM.Faults()
		vmPages = h.VM.Pages()
	}
	c["workload.ops"] = float64(b.ops())
	c["workload.stalled"] = float64(stalled)
	c["guest.faults"] = float64(faults)

	var swapOut, swapIn, cancelled int64
	for _, g := range b.groups {
		st := g.Stats()
		swapOut += st.SwapOutPages
		swapIn += st.SwapInPages
		cancelled += st.CancelledEvict
	}
	c["cgroup.swap_out_pages"] = float64(swapOut)
	c["cgroup.swap_in_pages"] = float64(swapIn)
	c["cgroup.evict_cancel_share"] = ratio(float64(cancelled), float64(swapOut+cancelled))
	if b.tr != nil {
		rec.Layers["cgroup.throttled_hwm"] = float64(b.throttled)
		rec.Layers["cgroup.throttled_hwm_share"] = ratio(float64(b.throttled), float64(vmPages))
	}

	var devRead, devWritten int64
	nics := []*simnet.NIC{b.tb.ClientNIC}
	for _, h := range b.tb.Hosts() {
		devRead += h.SwapDevice().BytesRead()
		devWritten += h.SwapDevice().BytesWritten()
		nics = append(nics, h.NIC())
	}
	c["blockdev.read_mb"] = float64(devRead) / 1e6
	c["blockdev.write_mb"] = float64(devWritten) / 1e6

	var written, read, retried, lost int64
	for _, cl := range b.tb.VMD.Clients() {
		w, r, rt := cl.Stats()
		written, read, retried = written+w, read+r, retried+rt
	}
	for _, ns := range b.tb.VMD.Namespaces() {
		lost += ns.LostPages()
	}
	c["vmd.pages_written"] = float64(written)
	c["vmd.pages_read"] = float64(read)
	c["vmd.retry_share"] = ratio(float64(retried), float64(written+read))
	c["vmd.lost_pages"] = float64(lost)

	for _, srv := range b.tb.VMD.Servers() {
		if nic := b.tb.Net.NICByName(srv.Name()); nic != nil {
			nics = append(nics, nic)
		}
	}
	var tx, msgsLost int64
	for _, nic := range nics {
		tx += nic.BytesSent()
		msgsLost += nic.MessagesLost()
	}
	c["simnet.tx_mb"] = float64(tx) / 1e6
	c["simnet.msgs_lost"] = float64(msgsLost)

	var pending float64
	for _, m := range b.ctl.Migrations() {
		rec.Submitted++
		if m.Status.Phase == ctlplane.PhaseSucceeded {
			rec.Succeeded++
		} else {
			rec.violate("migration %s ended %s: %s", m.Name, m.Status.Phase, m.Status.Reason)
		}
		if m.Status.StartedAtSeconds >= 0 {
			pending += m.Status.StartedAtSeconds - m.Status.SubmittedAtSeconds
		}
		if m.Status.Result != nil {
			rec.Results = append(rec.Results, *m.Status.Result)
		}
	}
	c["ctlplane.pending_s"] = pending
	addResultCounts(c, rec.Results, vmPages)
}

// addResultCounts derives the core counts from per-migration results.
func addResultCounts(c map[string]float64, results []core.Result, vmPages int) {
	var pages, records, demand, rounds int64
	var total, downtime, data float64
	for _, r := range results {
		pages += r.PagesSent
		records += r.OffsetRecords + r.UntouchedRecords
		demand += r.DemandRequests
		rounds += int64(r.Rounds)
		total += r.TotalSeconds
		downtime += r.DowntimeSeconds
		data += float64(r.BytesTransferred)
	}
	n := float64(len(results))
	c["core.pages_sent"] = float64(pages)
	c["core.offset_records"] = float64(records)
	c["core.demand_requests"] = float64(demand)
	c["core.rounds"] = float64(rounds)
	c["core.resend_share"] = ratio(float64(pages), n*float64(vmPages))
	c["core.sim_total_s"] = ratio(total, n)
	c["core.sim_downtime_ms"] = ratio(downtime*1e3, n)
	c["core.sim_data_mb"] = data / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clusterShim is the ctlplane.Cluster the controller drives: it forwards
// to the testbed, records every cgroup a migration creates, and in the
// traced run times each Launch and spans each migration.
type clusterShim struct {
	bench   *testbedBench
	launchS float64
	perMigS []float64
}

func (s *clusterShim) HostCapacities() []ctlplane.HostCapacity { return s.bench.tb.HostCapacities() }

func (s *clusterShim) VMHost(vm string) string { return s.bench.tb.VMHost(vm) }

func (s *clusterShim) Launch(vm, dest string, tech core.Technique, destReservationBytes, capBytesPerSec int64, onDone func(*core.Result)) (ctlplane.Handle, error) {
	b, tr := s.bench, s.bench.tr
	t0 := time.Now()
	done := onDone
	if tr != nil {
		id := tr.begin("migration "+vm+" -> "+dest, tr.migrate)
		done = func(res *core.Result) {
			tr.end(id)
			s.perMigS = append(s.perMigS, tr.spanSeconds(id))
			onDone(res)
		}
	}
	h, err := b.tb.Launch(vm, dest, tech, destReservationBytes, capBytesPerSec, done)
	if err != nil {
		return nil, err
	}
	// The migration's destination cgroup exists from its start.
	b.groups = append(b.groups, b.tb.HostByName(dest).Group(vm))
	if tr != nil {
		s.launchS += time.Since(t0).Seconds()
		tr.appendMarkers(b.tb.Eng, b.lane)
	}
	return h, nil
}

// placementShim times the placement policy in the traced run.
type placementShim struct {
	inner   ctlplane.PlacementPolicy
	tr      *tracer
	seconds float64
}

func (p *placementShim) Name() string { return p.inner.Name() }

func (p *placementShim) Place(hosts []ctlplane.HostCapacity, reqs []ctlplane.Request) []string {
	if p.tr == nil {
		return p.inner.Place(hosts, reqs)
	}
	t0 := time.Now()
	out := p.inner.Place(hosts, reqs)
	p.seconds += time.Since(t0).Seconds()
	return out
}

// fleetBench is the default 32-cell staggered evacuation on two shards.
type fleetBench struct {
	p   params
	tr  *tracer
	cfg cluster.FleetConfig
	f   *cluster.Fleet
	res cluster.EvacuationResult

	wall time.Duration // warm-up plus evacuation, for the shard busy shares
}

// fleetShards is fixed so that the workload is the same on every host;
// results do not depend on it.
const fleetShards = 2

func (b *fleetBench) build() {
	p := b.p
	cfg := cluster.DefaultFleetConfig()
	cfg.Seed = p.seed
	cfg.Shards = fleetShards
	cfg.HostRAMBytes = p.bytes(cfg.HostRAMBytes)
	cfg.VMMemBytes = p.bytes(cfg.VMMemBytes)
	cfg.DatasetBytes = p.bytes(cfg.DatasetBytes)
	cfg.ReservationBytes = p.bytes(cfg.ReservationBytes)
	cfg.IntermediateRAMBytes = p.bytes(cfg.IntermediateRAMBytes)
	cfg.WarmupSeconds = p.seconds(cfg.WarmupSeconds)
	b.cfg = cfg
	b.f = cluster.NewFleet(cfg)
	if b.tr != nil {
		for i := 0; i < b.f.Group.Shards(); i++ {
			b.tr.attach(b.f.Group.Engine(i), false)
		}
	}
}

// warm runs the fleet to the tick before the first start command.
func (b *fleetBench) warm() {
	t0 := time.Now()
	eng := b.f.Group.Engine(0)
	b.f.Group.Run(sim.Time(eng.SecondsToTicks(b.cfg.WarmupSeconds)) - 1)
	b.wall += time.Since(t0)
}

func (b *fleetBench) migrate() {
	t0 := time.Now()
	b.res = b.f.RunEvacuation(600)
	b.wall += time.Since(t0)
}

func (b *fleetBench) ops() int64 { return 0 }

func (b *fleetBench) collect(rec *record) {
	rec.Rows = b.f.Rows()
	rec.Submitted = b.res.Cells
	rec.Succeeded = b.res.Evacuated
	if !b.res.Success() {
		rec.violate("fleet: %s", b.res)
	}
	var ops, data int64
	var total, downtime float64
	for _, row := range rec.Rows {
		ops += row.OpsAtComplete
		data += row.BytesTransferred
		total += row.TotalSeconds
		downtime += row.DowntimeSeconds
	}
	n := float64(len(rec.Rows))
	c := rec.Counts
	c["workload.ops"] = float64(ops) // at each cell's completion tick
	c["core.sim_total_s"] = ratio(total, n)
	c["core.sim_downtime_ms"] = ratio(downtime*1e3, n)
	c["core.sim_data_mb"] = float64(data) / 1e6
	if b.tr == nil {
		return
	}
	var busy, maxBusy float64
	for _, l := range b.tr.lanes {
		s := l.busy.Seconds()
		busy += s
		if s > maxBusy {
			maxBusy = s
		}
	}
	mean := busy / float64(len(b.tr.lanes))
	rec.Layers["sim.shard_busy_share"] = ratio(mean, b.wall.Seconds())
	rec.Layers["sim.shard_imbalance"] = ratio(maxBusy, mean)
}
