package core

import (
	"fmt"

	"agilemig/internal/cgroup"
	"agilemig/internal/fifo"
	"agilemig/internal/guest"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
)

type phase int

const (
	phaseLive    phase = iota // VM at source: pre-copy rounds / Agile round 1
	phaseSuspend              // VM suspended: stop-and-copy or switchover prep
	phasePush                 // VM at destination: active push + demand paging
	phaseDone
)

// Migration drives one live migration end to end. It models the Migration
// Manager threads on both hosts; because the simulation is single-threaded,
// one object can safely hold both ends' state, with the network flows
// between them carrying every byte that would cross the wire.
type Migration struct {
	eng  *sim.Engine
	net  *simnet.Network
	spec Spec
	tun  Tuning
	tech Technique

	vm       *guest.VM
	nPages   int
	srcTable *mem.Table
	srcGroup *cgroup.Group

	destTable *mem.Table
	destGroup *cgroup.Group

	pushFlow   *simnet.Flow // src -> dst: migration stream (pages, CPU state)
	demandFlow *simnet.Flow // src -> dst: demand-page responses
	ctrlFlow   *simnet.Flow // dst -> src: fault requests

	// pushQ holds the page-carrying push-stream messages still on the wire,
	// in send order. Every one is sent with the same bound callback,
	// deliverPushF, which pops the head: the flow delivers in send order,
	// so the head is always the message that just landed.
	//
	// Its length is bounded by the model. The pumps stop at windowBytes of
	// unsent backlog, so at most windowBytes plus one message is waiting to
	// be transmitted, and at most (latency+1) ticks of NIC egress is in
	// transit. Every item is at least recordBytes long, so
	//
	//	len(pushQ) <= (windowBytes + largest message + (latency+1) × egress bytes per tick) / recordBytes
	//
	// plus, on the pre/post-copy swap-in paths, the full pages of at most
	// maxSwapInFlight clusters whose swap-ins complete outside the window.
	// With Agile's 16-byte records that is ~131 K items, but most runs never
	// come near it, so the queue grows by doubling instead of being
	// preallocated at the bound in every Migration.
	pushQ        fifo.Queue[pushItem]
	deliverPushF func()

	state         phase
	round         int
	cursor        mem.PageID
	prevRemaining int // dirty count at the previous round boundary
	// roundBM is the current pre-copy round's to-send set (or Agile round 1
	// = all pages). pushBM is the post-switchover push set.
	roundBM *mem.Bitmap
	pushBM  *mem.Bitmap
	// knownUntouched marks pages the destination may treat as zero pages
	// (Agile untouched records). offsetSent marks pages shipped by
	// reference, so the suspend step can detect stale references.
	knownUntouched *mem.Bitmap
	offsetSent     *mem.Bitmap

	faultInFlight     int // migration-driven swap-ins at the source
	swapInFree        []*swapInRec
	scatterInFlight   int // scatter-gather: VMD writes in flight
	outstandingDemand int // demand responses in flight
	pendingDemand     map[mem.PageID][]func()
	srcDrained        bool
	switched          bool
	aborted           bool

	downtimeBase sim.Duration
	result       Result
	em           *trace.Emitter // per-VM scope on spec.Trace; nil records nothing

	// Span-layer state. rootSpan covers the whole migration; phaseSpan is
	// whichever phase is current (a pre-copy/Agile round, the stop-and-copy
	// scan, the scatter or push stream); stopSpan covers exactly the
	// VM-stopped window (Suspend -> Switchover), so its duration equals the
	// migration's contribution to DowntimeSeconds; cpuSpan is the CPU-state
	// transit inside it; residSpan is the post-drain residual window, spent
	// waiting on in-flight deliveries and unanswered demand faults. Phase
	// transitions open and close these unguarded (see open); only the
	// per-batch and per-fault spans are guarded, to skip their attribute
	// construction when spans are off.
	sp        *trace.SpanEmitter
	rootSpan  trace.SpanID
	phaseSpan trace.SpanID
	stopSpan  trace.SpanID
	cpuSpan   trace.SpanID
	residSpan trace.SpanID
	// demandMeta tracks outstanding demand faults for span + latency
	// accounting (allocated only when spans or metrics are on; never
	// iterated, so map order cannot leak).
	demandMeta map[mem.PageID]demandTrack
	demandHist *metrics.Histogram
}

// pushKind is what a push-stream message carries.
type pushKind uint8

const (
	pushFull      pushKind = iota // n full pages from p
	pushOffset                    // an Agile offset record: p is at swap offset arg
	pushUntouched                 // a zero-page record for p
	pushScatter                   // n scatter records: p+i is at swap offset arg+i
)

// pushItem is one push-stream message still on the wire. A live round can
// have a whole window of 16-byte records in flight, so the item is kept
// to 12 bytes.
type pushItem struct {
	p mem.PageID
	// arg is the swap offset of p for records, and the batch span (0: none)
	// for full pages.
	arg uint32
	// n counts the pages or records; a run never exceeds pumpPagesPerTick.
	n    uint16
	kind pushKind
}

// sendPush offers one page-carrying message on the push stream. An item
// the loss window drops is never queued, so the FIFO stays aligned with
// the callbacks the flow will fire.
func (m *Migration) sendPush(bytes int64, it pushItem) {
	if m.pushFlow.SendMessage(bytes, m.deliverPushF) {
		m.pushQ.Push(it)
	}
}

// deliverPush lands the push stream's oldest message at the destination.
func (m *Migration) deliverPush() {
	it := m.pushQ.Pop()
	m.pushQ.Compact()
	switch it.kind {
	case pushFull:
		for i := mem.PageID(0); i < mem.PageID(it.n); i++ {
			m.deliverFullPage(it.p + i)
		}
		if it.arg != 0 {
			m.sp.End(m.eng.NowSeconds(), trace.SpanID(it.arg))
		}
	case pushOffset:
		t := m.destTable
		if t.State(it.p) == mem.StateUntouched {
			// §IV-F: store the offset in the swap offset table and set the
			// page's bit in the swapped bitmap.
			t.SetSwapOffset(it.p, it.arg)
			t.SetState(it.p, mem.StateSwapped)
		}
	case pushUntouched:
		m.knownUntouched.Set(it.p)
	case pushScatter:
		for i := uint32(0); i < uint32(it.n); i++ {
			m.deliverScatterRecord(it.p+mem.PageID(i), it.arg+i)
		}
	}
}

// demandTrack is the per-page demand-fault accounting record.
type demandTrack struct {
	span  trace.SpanID
	start sim.Time
}

// event records a trace event stamped with the current simulated time (a
// nil emitter costs one branch).
func (m *Migration) event(kind trace.Kind, format string, args ...interface{}) {
	m.em.Emitf(m.eng.NowSeconds(), kind, format, args...)
}

// open begins a span named name under parent now and stores its ID in
// *id. With spans off the ID stays 0, which close and every SpanEmitter
// method accept, so phase transitions call it unguarded.
func (m *Migration) open(id *trace.SpanID, name string, parent trace.SpanID, attrs ...trace.Attr) {
	*id = m.sp.Begin(m.eng.NowSeconds(), name, parent, attrs...)
}

// close ends the span in *id now and zeroes the slot; a zero or already
// ended span is a no-op.
func (m *Migration) close(id *trace.SpanID, attrs ...trace.Attr) {
	m.sp.End(m.eng.NowSeconds(), *id, attrs...)
	*id = 0
}

// finishDemand closes a demand fault's accounting: one latency observation
// and the fault's span. Safe when tracking is off or the page has no entry.
func (m *Migration) finishDemand(p mem.PageID) {
	if m.demandMeta == nil {
		return
	}
	dt, ok := m.demandMeta[p]
	if !ok {
		return
	}
	delete(m.demandMeta, p)
	m.demandHist.Observe(sim.Seconds(m.eng.Now()-dt.start, m.eng.TickLen()))
	m.sp.End(m.eng.NowSeconds(), dt.span)
}

// Start launches a migration and returns the handle. The VM must currently
// run on spec.Source.
func Start(eng *sim.Engine, net *simnet.Network, tech Technique, spec Spec) *Migration {
	if spec.VM == nil || spec.Source == nil || spec.Dest == nil {
		panic("core: incomplete migration spec")
	}
	if tech == Agile && spec.Namespace == nil && !spec.Tuning.NoRemoteSwap {
		panic("core: Agile migration requires the VM's namespace")
	}
	if tech == ScatterGather && spec.Namespace == nil {
		panic("core: scatter-gather migration requires the VM's namespace")
	}
	vm := spec.VM
	// A VM has exactly one Migration Manager pair at a time. Starting a
	// second migration while one is live would hand two engines the same
	// page table and adopt a second destination cgroup over the first —
	// silent page-state corruption. Callers that want queueing implement it
	// above this layer (cluster.Testbed rejects, ctlplane queues).
	if vm.Migrating() {
		panic(fmt.Sprintf("core: VM %s is already mid-migration", vm.Name()))
	}
	vm.SetMigrating(true)
	m := &Migration{
		eng:           eng,
		net:           net,
		spec:          spec,
		tun:           spec.Tuning,
		tech:          tech,
		vm:            vm,
		nPages:        vm.Pages(),
		srcTable:      vm.Table(),
		srcGroup:      vm.Group(),
		pendingDemand: make(map[mem.PageID][]func()),
		downtimeBase:  vm.Downtime(),
	}
	m.deliverPushF = m.deliverPush
	m.em = spec.Trace.Emitter(trace.ScopeVM, vm.Name())
	m.sp = spec.Trace.SpanEmitter(trace.ScopeVM, vm.Name())
	m.demandHist = spec.Metrics.Histogram(vm.Name()+"/demand.latency.seconds", metrics.DefaultLatencyBounds)
	if m.sp.Enabled() || m.demandHist != nil {
		m.demandMeta = make(map[mem.PageID]demandTrack)
	}
	m.result.Technique = tech
	m.result.VMName = vm.Name()
	m.result.Start = eng.Now()
	m.event(trace.MigrationStart, "%s of %s: %d pages, %s -> %s",
		tech, vm.Name(), m.nPages, spec.Source.Name(), spec.Dest.Name())
	m.open(&m.rootSpan, "migration", 0,
		trace.Str("technique", tech.String()),
		trace.Num("pages", float64(m.nPages)),
		trace.Str("source", spec.Source.Name()),
		trace.Str("dest", spec.Dest.Name()))

	src, dst := spec.Source.NIC(), spec.Dest.NIC()
	m.pushFlow = net.NewFlow("mig:push:"+vm.Name(), src, dst, spec.Latency)
	m.demandFlow = net.NewFlow("mig:demand:"+vm.Name(), src, dst, spec.Latency)
	m.ctrlFlow = net.NewFlow("mig:ctrl:"+vm.Name(), dst, src, spec.Latency)
	if m.tun.BandwidthCapBytesPerSec > 0 {
		m.pushFlow.SetRateCapBytesPerSecond(m.tun.BandwidthCapBytesPerSec)
		m.demandFlow.SetRateCapBytesPerSecond(m.tun.BandwidthCapBytesPerSec)
	}

	// The destination KVM/QEMU process: a fresh table and cgroup. For
	// Agile the reservation is clamped only at switchover (the per-VM swap
	// device is still attached at the source, so the destination must not
	// evict before then); pre/post-copy destinations evict to their own
	// shared partition from the first received page.
	m.destTable = mem.NewTable(m.nPages)
	resv := spec.DestReservationBytes
	if tech == Agile || tech == ScatterGather {
		resv = vm.MemBytes()
	}
	m.destGroup = cgroup.New(eng, spec.Dest.Name()+"/"+vm.Name(), m.destTable, spec.DestBackend, resv)
	m.destGroup.SetEmitter(spec.Trace.Emitter(trace.ScopeVM, m.destGroup.Name()))
	m.destGroup.RegisterMetrics(spec.Metrics)
	spec.Dest.AdoptGroup(vm, m.destGroup)

	switch tech {
	case PreCopy:
		m.roundBM = mem.NewBitmap(m.nPages)
		m.roundBM.SetAll()
		m.round = 1
		m.result.Rounds = 1
		m.state = phaseLive
		m.open(&m.phaseSpan, "round", m.rootSpan, trace.Num("round", float64(m.round)))
	case PostCopy:
		// Suspend immediately; CPU state leads the stream, pages follow.
		m.event(trace.Suspend, "immediate (post-copy)")
		vm.Suspend()
		m.open(&m.stopSpan, "stopped", m.rootSpan)
		m.open(&m.cpuSpan, "cpu-state", m.stopSpan)
		m.pushBM = mem.NewBitmap(m.nPages)
		m.pushBM.SetAll()
		m.state = phasePush
		m.pushFlow.SendMessage(cpuStateBytes, m.switchover)
	case Agile:
		m.roundBM = mem.NewBitmap(m.nPages)
		m.roundBM.SetAll()
		m.knownUntouched = mem.NewBitmap(m.nPages)
		m.offsetSent = mem.NewBitmap(m.nPages)
		m.round = 1
		m.result.Rounds = 1
		m.state = phaseLive
		m.open(&m.phaseSpan, "round", m.rootSpan, trace.Num("round", float64(m.round)))
	case ScatterGather:
		m.startScatterGather()
	}
	eng.AddTicker(sim.PhaseControl, m)
	return m
}

// Result returns the migration's result so far; meaningful once Done.
func (m *Migration) Result() *Result { return &m.result }

// Done reports whether the source holds no VM state anymore.
func (m *Migration) Done() bool { return m.state == phaseDone }

// Switched reports whether execution has moved to the destination.
func (m *Migration) Switched() bool { return m.switched }

// Aborted reports whether the migration was rolled back to the source.
func (m *Migration) Aborted() bool { return m.aborted }

// Abort rolls a pre-switchover migration back to the source: the
// destination discards everything it received, the VM (resumed if the
// stop-and-copy had suspended it) keeps running where it was, and the
// migration flows close. Returns false once execution has moved to the
// destination (or the migration already finished) — past that point there
// is no source copy to fall back to.
func (m *Migration) Abort() bool {
	if m.switched || m.state == phaseDone || m.aborted {
		return false
	}
	m.aborted = true
	m.state = phaseDone
	m.vm.SetMigrating(false)
	m.result.Aborted = true
	m.event(trace.MigrationAbort, "rolled back to %s after %d pages sent",
		m.spec.Source.Name(), m.result.PagesSent)
	m.close(&m.phaseSpan)
	m.close(&m.cpuSpan)
	m.close(&m.stopSpan)
	m.close(&m.residSpan)
	m.close(&m.rootSpan, trace.Str("outcome", "aborted"))
	// The destination side is torn down; its cgroup never ran the VM.
	m.destGroup.Disable()
	m.spec.Dest.RemoveVM(m.vm.Name())
	// Undo anything the live phase did to the guest's execution.
	m.vm.SetCPUQuota(1)
	if !m.vm.Running() {
		m.vm.Resume()
	}
	m.result.End = m.eng.Now()
	m.result.TotalSeconds = sim.Seconds(m.result.End-m.result.Start, m.eng.TickLen())
	m.result.DowntimeSeconds = sim.Seconds(sim.Time(m.vm.Downtime()-m.downtimeBase), m.eng.TickLen())
	m.result.BytesTransferred = m.pushFlow.Offered() + m.demandFlow.Offered() + m.ctrlFlow.Offered()
	m.pushFlow.Close()
	m.demandFlow.Close()
	m.ctrlFlow.Close()
	if m.spec.OnComplete != nil {
		m.spec.OnComplete(&m.result)
	}
	return true
}

// Tick advances the engine's current phase.
func (m *Migration) Tick(_ sim.Time) {
	switch m.state {
	case phaseLive, phaseSuspend:
		if m.roundBM != nil {
			m.pumpRound()
		}
	case phasePush:
		if m.tech == ScatterGather {
			m.pumpScatter()
		} else {
			m.pumpPush()
		}
	}
}

// NextWake reports when the migration pump next has work. While a pump is
// active the manager runs every tick; in the states where Tick is an exact
// no-op — done, waiting for the CPU state to land, demand-only ablation, or
// source drained — progress is driven entirely by flow-delivery and device
// events, so the engine may skip ahead.
func (m *Migration) NextWake(now sim.Time) (sim.Time, bool) {
	switch m.state {
	case phaseDone:
		return sim.Never, true
	case phaseLive, phaseSuspend:
		if m.roundBM == nil {
			// Stop-and-copy finished; the CPU state is on the wire and
			// switchover fires as a message callback.
			return sim.Never, true
		}
		return now + 1, true
	default: // phasePush
		if m.tech == Agile && !m.switched {
			return sim.Never, true
		}
		if m.tun.DisableActivePush && m.tech != ScatterGather {
			return sim.Never, true
		}
		if m.srcDrained {
			return sim.Never, true
		}
		return now + 1, true
	}
}

// pumpRound walks the current round's bitmap, respecting the send window
// and the swap-in concurrency bound.
func (m *Migration) pumpRound() {
	budget := pumpPagesPerTick
	for budget > 0 {
		if m.pushFlow.Backlog() >= windowBytes {
			return
		}
		p := m.roundBM.NextSet(m.cursor)
		if p == mem.NoPage {
			if m.faultInFlight > 0 {
				return // stragglers still swapping in
			}
			m.endRound()
			return
		}
		m.cursor = p + 1
		m.roundBM.Clear(p)
		st := m.srcTable.State(p)
		consumed := 1
		switch m.tech {
		case PreCopy:
			if st.OnSwap() {
				// §II: swapped pages must be brought back into memory
				// before they can be transferred.
				if m.faultInFlight >= maxSwapInFlight {
					m.roundBM.Set(p)
					m.cursor = p
					return
				}
				m.swapInAndSend(p, m.roundBM, false)
			} else {
				consumed = m.sendFullRun(p, m.roundBM, budget, false, extendNonSwap)
			}
		case Agile:
			// §IV-E: consult the pagemap; swapped pages travel as offset
			// records, untouched pages as zero records, resident pages in
			// full. Nothing is swapped in — unless the NoRemoteSwap
			// ablation removes the portable swap device, in which case
			// swapped pages take the pre-copy path.
			switch {
			case st.OnSwap() && m.tun.NoRemoteSwap:
				if m.faultInFlight >= maxSwapInFlight {
					m.roundBM.Set(p)
					m.cursor = p
					return
				}
				m.swapInAndSend(p, m.roundBM, false)
			case st.OnSwap():
				m.sendOffsetRecord(p)
			case st == mem.StateUntouched:
				m.sendUntouchedRecord(p)
			default:
				consumed = m.sendFullRun(p, m.roundBM, budget, false, extendAgileFull)
			}
		default:
			panic("core: pumpRound in " + m.tech.String())
		}
		budget -= consumed
	}
}

// extendNonSwap admits any in-memory page into a full-page run (the
// pre-copy and push predicates: everything not on the swap device streams
// in full).
func extendNonSwap(s mem.PageState) bool { return !s.OnSwap() }

// extendAgileFull admits only resident-tier pages: in Agile's live round,
// swapped and untouched pages travel as records, not full pages.
func extendAgileFull(s mem.PageState) bool { return !s.OnSwap() && s != mem.StateUntouched }

// pumpPush streams the post-switchover push set, swapping in at the source
// where needed (post-copy only; Agile's push set was faulted in before
// switchover).
func (m *Migration) pumpPush() {
	if !m.switched && m.tech == Agile {
		return // waiting for the CPU state to arrive
	}
	if m.tun.DisableActivePush {
		return // ablation: demand paging only; transfer time is unbounded
	}
	budget := pumpPagesPerTick
	for budget > 0 {
		if m.pushFlow.Backlog() >= windowBytes {
			return
		}
		p := m.pushBM.NextSet(m.cursor)
		if p == mem.NoPage {
			if m.faultInFlight > 0 {
				return
			}
			if !m.srcDrained {
				m.srcDrained = true
				m.event(trace.SourceDrained, "push set empty after %d pages", m.result.PagesSent)
				m.close(&m.phaseSpan, trace.Num("pages-sent", float64(m.result.PagesSent)))
				m.open(&m.residSpan, "residual", m.rootSpan)
				// FIFO marker: when this arrives, every pushed page has.
				m.pushFlow.SendMessage(recordBytes, func() {
					m.maybeComplete()
				})
				if m.tun.DemandRetrySeconds > 0 {
					// The marker itself can be lost inside a loss window;
					// poll completion at the retry cadence as a backstop.
					m.armDrainCheck()
				}
			}
			return
		}
		m.cursor = p + 1
		m.pushBM.Clear(p)
		st := m.srcTable.State(p)
		consumed := 1
		if st.OnSwap() {
			if m.faultInFlight >= maxSwapInFlight {
				m.pushBM.Set(p)
				m.cursor = p
				return
			}
			m.swapInAndSend(p, m.pushBM, true)
		} else {
			consumed = m.sendFullRun(p, m.pushBM, budget, true, extendNonSwap)
		}
		budget -= consumed
	}
}

// armDrainCheck re-evaluates completion periodically once the source has
// drained, so a lost drain marker or demand response cannot wedge an
// otherwise-finished migration.
func (m *Migration) armDrainCheck() {
	m.eng.AfterSeconds(m.tun.DemandRetrySeconds, func() {
		if m.state == phaseDone {
			return
		}
		m.maybeComplete()
		if m.state != phaseDone {
			m.armDrainCheck()
		}
	})
}

// swapInAndSend swaps in page p at the source — together with up to a
// readahead cluster's worth of consecutive swapped pages still pending in
// bm — and streams the batch when it lands. p has already been cleared
// from bm; the cluster members are cleared here. The caller has verified
// the in-flight bound, so at most maxSwapInFlight records are out at once.
func (m *Migration) swapInAndSend(p mem.PageID, bm *mem.Bitmap, freeAfter bool) {
	m.faultInFlight++
	r := m.newSwapIn(p, freeAfter)
	if m.srcTable.State(p) == mem.StateFaulting {
		// A guest fault is already bringing the page in; join it.
		m.srcGroup.FaultIn(p, r.sendF)
		return
	}
	for q := p + 1; int(q) < m.nPages && r.n < swapInCluster; q++ {
		if !bm.Test(q) || m.srcTable.State(q) != mem.StateSwapped {
			break
		}
		bm.Clear(q)
		r.n++
	}
	var pages [swapInCluster]mem.PageID // FaultInCluster copies it
	for i := range pages[:r.n] {
		pages[i] = p + mem.PageID(i)
	}
	m.srcGroup.FaultInCluster(pages[:r.n], r.sendF)
}

// swapInRec carries one migration-driven swap-in of the n consecutive
// pages from p until they are resident and sent.
type swapInRec struct {
	m         *Migration
	p         mem.PageID
	n         int
	freeAfter bool
	sendF     func()
}

func (m *Migration) newSwapIn(p mem.PageID, freeAfter bool) *swapInRec {
	var r *swapInRec
	if n := len(m.swapInFree); n > 0 {
		r = m.swapInFree[n-1]
		m.swapInFree[n-1] = nil
		m.swapInFree = m.swapInFree[:n-1]
	} else {
		r = &swapInRec{m: m}
		r.sendF = r.send
	}
	r.p, r.n, r.freeAfter = p, 1, freeAfter
	return r
}

// send streams the swapped-in pages in BatchPages runs. The record
// recycles first (the swap-in completes exactly once).
func (r *swapInRec) send() {
	m, p, n, freeAfter := r.m, r.p, r.n, r.freeAfter
	m.swapInFree = append(m.swapInFree, r)
	m.faultInFlight--
	step := m.tun.BatchPages
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		j := i + step
		if j > n {
			j = n
		}
		m.sendFullPages(p+mem.PageID(i), j-i, freeAfter)
	}
}

// sendFullRun streams a run of consecutive in-memory pages starting at p as
// one batched message. p is already cleared from bm; the extension — bounded
// by BatchPages, the remaining pump budget, and the extend predicate over
// page states — clears its members and advances the cursor past them.
// Returns the number of pages consumed (1 with batching off, taking exactly
// the unbatched path).
func (m *Migration) sendFullRun(p mem.PageID, bm *mem.Bitmap, budget int, freeAfter bool, extend func(mem.PageState) bool) int {
	maxRun := m.tun.BatchPages
	if maxRun > budget {
		maxRun = budget
	}
	if maxRun <= 1 {
		m.sendFullPages(p, 1, freeAfter)
		return 1
	}
	q := p + 1
	for int(q) < m.nPages && int(q-p) < maxRun && bm.Test(q) && extend(m.srcTable.State(q)) {
		bm.Clear(q)
		q++
	}
	m.cursor = q
	m.sendFullPages(p, int(q-p), freeAfter)
	return int(q - p)
}

// sendFullPages streams the n pages from p as one message: the page bodies
// share a single header frame, and delivery lands them at the destination
// in page order. freeAfter releases the source copies (active push and
// demand service free source memory as they go).
func (m *Migration) sendFullPages(p mem.PageID, n int, freeAfter bool) {
	end := p + mem.PageID(n)
	m.result.PagesSent += int64(n)
	for q := p; q < end; q++ {
		m.srcTable.ClearDirty(q)
	}
	it := pushItem{p: p, n: uint16(n), kind: pushFull}
	if n > 1 && m.sp.Enabled() {
		it.arg = uint32(m.sp.Begin(m.eng.NowSeconds(), "batch", m.phaseSpan,
			trace.Num("pages", float64(n))))
	}
	m.sendPush(mem.PagesToBytes(n)+pageHeaderBytes, it)
	if freeAfter {
		for q := p; q < end; q++ {
			m.freeSourcePage(q)
		}
	}
}

// sendOffsetRecord ships a swapped page by reference (Agile).
func (m *Migration) sendOffsetRecord(p mem.PageID) {
	m.result.OffsetRecords++
	m.offsetSent.Set(p)
	m.srcTable.ClearDirty(p)
	m.sendPush(recordBytes, pushItem{p: p, arg: m.srcTable.SwapOffset(p), kind: pushOffset})
}

// sendUntouchedRecord tells the destination the page reads as zeros.
func (m *Migration) sendUntouchedRecord(p mem.PageID) {
	m.result.UntouchedRecords++
	m.sendPush(recordBytes, pushItem{p: p, kind: pushUntouched})
}

// freeSourcePage releases the page's source memory once its content is on
// the wire.
func (m *Migration) freeSourcePage(p mem.PageID) {
	switch m.srcTable.State(p) {
	case mem.StateResident, mem.StateEvicting:
		// An in-flight write-back completes against a non-Evicting state
		// and releases its slot.
		m.srcTable.SetState(p, mem.StateUntouched)
	default:
		// Swapped pages stay on the device (Agile cold pages); untouched
		// pages are already free; faulting cannot happen after content was
		// read.
	}
}

// deliverFullPage lands a streamed page in the destination's memory.
func (m *Migration) deliverFullPage(p mem.PageID) {
	t := m.destTable
	switch t.State(p) {
	case mem.StateUntouched:
		t.SetState(p, mem.StateResident)
	case mem.StateSwapped:
		// A newer copy supersedes the one the destination had evicted.
		m.destGroup.Backend().Release(t.SwapOffset(p))
		t.SetState(p, mem.StateResident)
	case mem.StateEvicting:
		m.destGroup.CancelEviction(p)
	case mem.StateResident, mem.StateFaulting:
		// Duplicate (demand/push race) or racing its own fault; no change.
	}
	m.fireDemandWaiters(p)
}

// --- demand paging ------------------------------------------------------

// requestFromSource registers a destination fault and asks the source for
// the page (deduplicating concurrent faults on the same page).
func (m *Migration) requestFromSource(p mem.PageID, done func()) {
	if ws, ok := m.pendingDemand[p]; ok {
		m.pendingDemand[p] = append(ws, done)
		return
	}
	m.pendingDemand[p] = []func(){done}
	m.result.DemandRequests++
	if m.em.Enabled() {
		m.em.Emitf(m.eng.NowSeconds(), trace.DemandFault, "page %d requested from %s", p, m.spec.Source.Name())
	}
	if m.demandMeta != nil {
		dt := demandTrack{start: m.eng.Now()}
		if m.sp.Enabled() {
			dt.span = m.sp.Begin(m.eng.NowSeconds(), "demand-fault", m.rootSpan,
				trace.Num("page", float64(p)))
		}
		m.demandMeta[p] = dt
	}
	m.ctrlFlow.SendMessage(demandRequestBytes, func() {
		m.serveDemand(p, false)
	})
	if m.tun.DemandRetrySeconds > 0 {
		m.armDemandRetry(p, m.tun.DemandRetrySeconds, 1)
	}
}

// armDemandRetry re-sends a demand request that a crash, link outage or
// lost message swallowed: if the page is still unanswered when the timer
// fires, the request goes out again and the timeout doubles (capped at
// 16x the base), up to the retry budget. A retried request may cross a
// late response on the wire; the duplicate delivery is absorbed by
// deliverFullPage.
func (m *Migration) armDemandRetry(p mem.PageID, delay float64, attempt int) {
	m.eng.AfterSeconds(delay, func() {
		if m.state == phaseDone {
			return
		}
		if _, waiting := m.pendingDemand[p]; !waiting {
			return
		}
		if attempt > demandRetryMax {
			return // budget spent; the active push still covers the page
		}
		m.result.DemandRetries++
		m.event(trace.DemandRetry, "page %d unanswered after %.2fs, re-requesting (attempt %d)", p, delay, attempt)
		if dt, ok := m.demandMeta[p]; ok {
			m.sp.SetAttr(dt.span, trace.Num("retries", float64(attempt)))
		}
		m.ctrlFlow.SendMessage(demandRequestBytes, func() {
			m.serveDemand(p, true)
		})
		next := delay * 2
		if max := m.tun.DemandRetrySeconds * 16; next > max {
			next = max
		}
		m.armDemandRetry(p, next, attempt+1)
	})
}

// serveDemand handles a fault request at the source.
func (m *Migration) serveDemand(p mem.PageID, retry bool) {
	if m.pushBM == nil || !m.pushBM.Test(p) {
		// Already pushed (or being pushed): the in-flight copy will fire
		// the waiters on delivery — unless this is a retry, meaning that
		// copy (or the earlier response) was likely lost in transit; send
		// the page again and let duplicate delivery dedup.
		if !retry {
			return
		}
		if _, waiting := m.pendingDemand[p]; !waiting {
			return
		}
		if st := m.srcTable.State(p); st.OnSwap() {
			m.faultInFlight++
			m.srcGroup.FaultIn(p, func() {
				m.faultInFlight--
				m.respondDemand(p)
			})
			return
		}
		m.respondDemand(p)
		return
	}
	m.pushBM.Clear(p)
	st := m.srcTable.State(p)
	if st.OnSwap() {
		if m.tech == ScatterGather && st == mem.StateSwapped {
			// The page is already on the per-VM swap device: answer with a
			// record instead of pulling it through source memory.
			m.sendScatterRecord(p, m.srcTable.SwapOffset(p))
			return
		}
		m.faultInFlight++
		m.srcGroup.FaultIn(p, func() {
			m.faultInFlight--
			m.respondDemand(p)
		})
		return
	}
	m.respondDemand(p)
}

func (m *Migration) respondDemand(p mem.PageID) {
	m.result.PagesSent++
	m.result.PagesDemandServed++
	m.srcTable.ClearDirty(p)
	m.outstandingDemand++
	m.demandFlow.SendMessage(mem.PageSize+pageHeaderBytes, func() {
		m.deliverFullPage(p)
		m.outstandingDemand--
		m.maybeComplete()
	})
	m.freeSourcePage(p)
}

func (m *Migration) fireDemandWaiters(p mem.PageID) {
	ws, ok := m.pendingDemand[p]
	if !ok {
		return
	}
	delete(m.pendingDemand, p)
	m.finishDemand(p)
	for _, w := range ws {
		w()
	}
	m.maybeComplete()
}

// maybeComplete finishes the migration once the source is drained and no
// demand traffic is outstanding.
func (m *Migration) maybeComplete() {
	if m.state != phasePush || !m.srcDrained {
		return
	}
	if len(m.pendingDemand) > 0 || m.faultInFlight > 0 {
		return
	}
	// With retries off every response callback fires, so in-flight
	// responses gate completion exactly. With retries armed a lost
	// response leaks this counter; the destination is whole once nothing
	// is pending, so the leak must not wedge completion.
	if m.outstandingDemand > 0 && m.tun.DemandRetrySeconds <= 0 {
		return
	}
	m.complete()
}

// complete tears down the source side.
func (m *Migration) complete() {
	if m.state == phaseDone {
		return
	}
	m.state = phaseDone
	m.vm.SetMigrating(false)
	m.event(trace.Complete, "total %.2fs, %d pages sent, %d demand-served",
		sim.Seconds(m.eng.Now()-m.result.Start, m.eng.TickLen()), m.result.PagesSent, m.result.PagesDemandServed)
	m.close(&m.residSpan)
	m.close(&m.phaseSpan)
	// The root keeps its ID: a gather tail started below still parents on
	// it.
	m.sp.End(m.eng.NowSeconds(), m.rootSpan,
		trace.Num("pages-sent", float64(m.result.PagesSent)),
		trace.Num("demand-served", float64(m.result.PagesDemandServed)))
	if m.tech != PreCopy {
		// Runtime faults from here on use the destination cgroup directly.
		m.vm.SetFaultHandler(nil)
	}
	if (m.tech == Agile || m.tech == ScatterGather) && !m.tun.NoRemoteSwap {
		// §IV-B: disconnect the per-VM swap device from the source once
		// the in-memory state has fully migrated.
		m.spec.Namespace.Detach(m.spec.Source.VMDClient())
		m.event(trace.NamespaceDetach, "namespace detached from %s (source drained)", m.spec.Source.Name())
	}
	m.srcGroup.Disable()
	m.spec.Source.RemoveVM(m.vm.Name())
	m.result.End = m.eng.Now()
	m.result.TotalSeconds = sim.Seconds(m.result.End-m.result.Start, m.eng.TickLen())
	m.result.DowntimeSeconds = sim.Seconds(sim.Time(m.vm.Downtime()-m.downtimeBase), m.eng.TickLen())
	m.result.BytesTransferred = m.pushFlow.Offered() + m.demandFlow.Offered() + m.ctrlFlow.Offered()
	m.pushFlow.Close()
	m.demandFlow.Close()
	m.ctrlFlow.Close()
	if m.tech == ScatterGather && m.tun.GatherPrefetch {
		m.startGatherPrefetch()
	}
	if m.spec.OnComplete != nil {
		m.spec.OnComplete(&m.result)
	}
}

// switchover moves execution to the destination (runs when the CPU state
// message is delivered there).
func (m *Migration) switchover() {
	if m.switched {
		return
	}
	m.switched = true
	m.result.Switchover = m.eng.Now()
	m.event(trace.Switchover, "execution resumes at %s", m.spec.Dest.Name())
	m.close(&m.cpuSpan)
	m.close(&m.stopSpan)
	if m.tech == PostCopy || m.tech == Agile {
		// Scatter-gather keeps its scatter span; pre-copy completes here.
		m.open(&m.phaseSpan, "push", m.rootSpan)
	}
	if m.tech == ScatterGather {
		// The portable swap device attaches at the destination; scattered
		// pages become reachable there as their records arrive.
		m.spec.Namespace.AttachTo(m.spec.Dest.VMDClient())
		m.event(trace.NamespaceAttach, "namespace attached at %s (switchover)", m.spec.Dest.Name())
		m.destGroup.SetReservationBytes(m.spec.DestReservationBytes)
	}
	if m.tech == Agile {
		// An offset record can go stale without the page ever hitting the
		// dirty log: a clean read at the source faults the page in, which
		// frees the swap slot the record points at. Fold such pages into
		// the push set so the record is discarded below and the resident
		// copy is re-sent like any other live-round casualty.
		m.offsetSent.ForEachSet(func(p mem.PageID) bool {
			if !m.srcTable.State(p).OnSwap() && !m.pushBM.Test(p) {
				m.pushBM.Set(p)
				m.result.StaleOffsetRecords++
			}
			return true
		})
		// Discard destination copies that went stale during the live
		// round: the shipped dirty bitmap tells the destination which
		// pages must come from the source regardless of what it received.
		m.pushBM.ForEachSet(func(p mem.PageID) bool {
			switch m.destTable.State(p) {
			case mem.StateResident:
				m.destTable.SetState(p, mem.StateUntouched)
			case mem.StateSwapped:
				// The offset record is stale; the source faulted the page
				// in (releasing the slot) before switchover.
				m.destTable.SetState(p, mem.StateUntouched)
			}
			m.knownUntouched.Clear(p)
			return true
		})
		// The portable swap device attaches at the destination; the VM's
		// cold pages become reachable there.
		if !m.tun.NoRemoteSwap {
			m.spec.Namespace.AttachTo(m.spec.Dest.VMDClient())
			m.event(trace.NamespaceAttach, "namespace attached at %s (switchover)", m.spec.Dest.Name())
		}
		m.destGroup.SetReservationBytes(m.spec.DestReservationBytes)
	}
	// Any auto-converge throttling ends with the move.
	m.vm.SetCPUQuota(1)
	m.vm.ReplaceTable(m.destTable)
	m.vm.AttachGroup(m.destGroup)
	if m.tech != PreCopy {
		m.vm.SetFaultHandler(&destFaultHandler{m: m})
	}
	if m.spec.OnSwitchover != nil {
		m.spec.OnSwitchover()
	}
	m.vm.Resume()
	if m.tech == PreCopy {
		m.complete()
	}
}

func (m *Migration) String() string {
	return fmt.Sprintf("migration{%s %s, phase %d, round %d}", m.tech, m.vm.Name(), m.state, m.round)
}
