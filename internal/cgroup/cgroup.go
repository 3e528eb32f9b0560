// Package cgroup models the Linux memory-cgroup mechanism the paper uses
// (with the per-cgroup-swap-file patch) to bound each VM's resident set and
// to route its evictions to its own swap device. One Group corresponds to
// the cgroup holding one KVM/QEMU process on one host.
//
// The Group enforces its reservation with clock (second-chance) reclaim:
// when the VM's in-RAM footprint exceeds the reservation, cold pages are
// written back to the group's swap backend and become swapped. Faults read
// them back in. Both directions consume real device/network bandwidth, so
// a reservation below the working set produces sustained swap traffic —
// the thrashing that the paper's watermark trigger and WSS tracker react
// to — and the per-group swap I/O counters play the role of iostat on the
// per-VM swap device.
package cgroup

import (
	"fmt"

	"agilemig/internal/fifo"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// SwapBackend is the group's swap device: either a slice of the host's
// shared SSD swap partition (the pre-copy/post-copy configuration) or the
// VM's private VMD namespace (the Agile configuration).
type SwapBackend interface {
	// SlotFor returns the swap slot to store page p in, or false when the
	// device is full. Per-VM devices map the page to itself; shared
	// partitions allocate a slot.
	SlotFor(p mem.PageID) (uint32, bool)
	// Release returns a slot to the device (page faulted back in, or an
	// eviction was cancelled before its write-back finished).
	Release(off uint32)
	// WritePage stores a page at the slot; done runs when durable.
	WritePage(off uint32, done func())
	// ReadPage fetches a page from the slot; done runs when the data is
	// available.
	ReadPage(off uint32, done func())
	// ReadCluster fetches several slots in one request — the swap-readahead
	// path a sequential scan (a migration manager walking the address
	// space) benefits from. On a block device this costs one operation's
	// worth of IOPS; on a network device it fans out.
	ReadCluster(offs []uint32, done func())
}

// Stats are the group's cumulative swap I/O counters — what the paper's
// tracker reads via iostat on the per-VM swap device.
type Stats struct {
	SwapOutPages   int64 // pages written to the swap device
	SwapInPages    int64 // pages read back
	CancelledEvict int64 // evictions cancelled by a touch before write-back finished
	SwapFullEvents int64 // eviction attempts that found the device full
}

// Group bounds one VM's resident memory on one host.
type Group struct {
	eng     *sim.Engine
	name    string
	table   *mem.Table
	clock   *mem.Clock
	backend SwapBackend

	reservationPages int
	// maxEvictInFlight caps concurrent write-backs, like kswapd's batch;
	// it bounds how hard reclaim can hammer the device in one tick.
	maxEvictInFlight int
	evictInFlight    int

	waiters  map[mem.PageID][]func()
	disabled bool
	// throttled holds fault admissions deferred by direct-reclaim
	// throttling: when the group is over its reservation by more than the
	// eviction batch, each new fault must wait for an eviction to complete
	// (the kernel makes allocating tasks do direct reclaim). This is the
	// back-pressure that turns overcommit into throughput collapse instead
	// of an unbounded resident set.
	// Entries are small values, not heap objects: under sustained thrash
	// the backlog legitimately holds many entries per page (every repeated
	// touch of a swapped page defers one admission, and each must consume
	// its own drain slot), so a per-entry allocation would cost gigabytes
	// over a long run.
	throttled       fifo.Queue[throttledEntry]
	evictSinceAdmit int

	stats Stats

	// Freelists and scratch for the hot reclaim/fault paths: eviction and
	// fault completions are pooled records with callbacks bound once, so
	// steady-state thrash allocates nothing per page moved.
	victimScratch []mem.PageID
	evictFree     []*evictRec
	faultFree     []*faultRec
	clusterFree   []*clusterRec
	waiterFree    [][]func()

	// em receives reservation-change and swap-full events; nil (the
	// default) records nothing.
	em *trace.Emitter
}

// evictRec carries one in-flight eviction across its write-back completion.
type evictRec struct {
	g     *Group
	p     mem.PageID
	slot  uint32
	doneF func()
}

// faultRec carries one fault across its swap-read completion.
type faultRec struct {
	g     *Group
	p     mem.PageID
	slot  uint32
	readF func()
}

// clusterRec carries one clustered swap-in from admission to its last
// page: through the throttled queue (runF), the device read (readF) and
// every joined in-flight page (finishF). It recycles when its last pending
// step finishes, which is never before the device read's done has fired,
// since backends may hold offs until then.
type clusterRec struct {
	g *Group
	// pages is the caller's batch, copied; run filters it in place down to
	// the pages this record reads, whose slots are offs.
	pages   []mem.PageID
	offs    []uint32
	done    func()
	pending int
	runF    func()
	readF   func()
	finishF func()
}

// throttledEntry is one deferred fault admission: either a page fault
// (faultInNow(p, done) when drained) or a deferred run (a clusterRec's
// bound run method, for clustered fault admission).
type throttledEntry struct {
	p    mem.PageID
	done func()
	run  func()
}

// DefaultEvictBatch is the default cap on in-flight evictions.
const DefaultEvictBatch = 128

// New returns a group enforcing reservationBytes over the given table,
// swapping to backend. It registers reclaim in sim.PhaseMemory.
func New(eng *sim.Engine, name string, table *mem.Table, backend SwapBackend, reservationBytes int64) *Group {
	g := &Group{
		eng:              eng,
		name:             name,
		table:            table,
		clock:            mem.NewClock(table),
		backend:          backend,
		reservationPages: mem.BytesToPages(reservationBytes),
		maxEvictInFlight: DefaultEvictBatch,
		waiters:          make(map[mem.PageID][]func()),
	}
	eng.AddTicker(sim.PhaseMemory, g)
	return g
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Table returns the page table the group manages.
func (g *Group) Table() *mem.Table { return g.table }

// SetTable replaces the managed table (used when a migration hands the
// source group a residual image to drain).
func (g *Group) SetTable(t *mem.Table) {
	g.table = t
	g.clock = mem.NewClock(t)
	g.waiters = make(map[mem.PageID][]func())
}

// Backend returns the group's swap backend.
func (g *Group) Backend() SwapBackend { return g.backend }

// ReservationBytes returns the current reservation.
func (g *Group) ReservationBytes() int64 {
	return mem.PagesToBytes(g.reservationPages)
}

// SetReservationBytes adjusts the reservation; reclaim reacts from the next
// tick (this is the knob the WSS tracker turns).
func (g *Group) SetReservationBytes(b int64) {
	p := mem.BytesToPages(b)
	if p < 1 {
		p = 1
	}
	if g.em.Enabled() && p != g.reservationPages {
		g.em.Emitf(g.eng.NowSeconds(), trace.CgroupResize, "reservation %d -> %d pages",
			g.reservationPages, p)
	}
	g.reservationPages = p
}

// SetEmitter attaches a trace emitter for reservation and swap-full
// events; nil (the default) detaches.
func (g *Group) SetEmitter(em *trace.Emitter) { g.em = em }

// RegisterMetrics registers the group's reservation, residency and swap
// I/O as gauges keyed by the group name ("<host>/<vm>/...").
func (g *Group) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge(g.name+"/reservation.bytes", func() float64 { return float64(g.ReservationBytes()) })
	reg.Gauge(g.name+"/inram.pages", func() float64 { return float64(g.table.InRAM()) })
	reg.Gauge(g.name+"/swapout.pages", func() float64 { return float64(g.stats.SwapOutPages) })
	reg.Gauge(g.name+"/swapin.pages", func() float64 { return float64(g.stats.SwapInPages) })
	reg.Gauge(g.name+"/throttled.faults", func() float64 { return float64(g.ThrottledFaults()) })
}

// Stats returns the cumulative swap I/O counters.
func (g *Group) Stats() Stats { return g.stats }

// ExcessPages returns how far the group is over its reservation.
func (g *Group) ExcessPages() int {
	e := g.table.InRAM() - g.reservationPages
	if e < 0 {
		return 0
	}
	return e
}

// Disable permanently stops reclaim and fault service — the group's VM has
// fully migrated away and the cgroup has been destroyed. Outstanding device
// completions are dropped harmlessly.
func (g *Group) Disable() { g.disabled = true }

// Disabled reports whether Disable was called.
func (g *Group) Disabled() bool { return g.disabled }

// Tick runs reclaim: while over reservation, pick clock victims and start
// write-backs, bounded by the in-flight cap; then admit throttled faults
// if pressure has subsided (or reclaim cannot make progress, in which case
// stalling them forever would deadlock the guest).
func (g *Group) Tick(_ sim.Time) {
	if g.disabled {
		return
	}
	need := g.ExcessPages() - g.evictInFlight
	if need > 0 {
		room := g.maxEvictInFlight - g.evictInFlight
		if need > room {
			need = room
		}
		if need > 0 {
			g.victimScratch = g.clock.FindVictims(need, g.victimScratch[:0])
			for _, p := range g.victimScratch {
				g.startEviction(p)
			}
		}
	}
	if g.ExcessPages() <= g.maxEvictInFlight || g.evictInFlight == 0 {
		g.drainThrottled(g.ThrottledFaults())
	}
}

// NextWake reports when reclaim next has work: immediately while the group
// is over its reservation with room to start evictions (the clock scan
// advances state even when it comes up empty-handed), or while throttled
// fault admissions are drainable. Otherwise a reclaim tick is an exact
// no-op; eviction and fault completions arrive via the engine's event
// queue, so the engine may skip ahead.
func (g *Group) NextWake(now sim.Time) (sim.Time, bool) {
	if g.disabled {
		return sim.Never, true
	}
	if g.ExcessPages()-g.evictInFlight > 0 && g.evictInFlight < g.maxEvictInFlight {
		return now + 1, true
	}
	if g.ThrottledFaults() > 0 && (g.ExcessPages() <= g.maxEvictInFlight || g.evictInFlight == 0) {
		return now + 1, true
	}
	return sim.Never, true
}

func (g *Group) drainThrottled(n int) {
	for i := 0; i < n && g.throttled.Len() > 0; i++ {
		e := g.throttled.Pop()
		if e.run != nil {
			e.run()
		} else {
			g.faultInNow(e.p, e.done)
		}
	}
	g.throttled.Compact()
}

// admit runs a fault immediately when the group is near its reservation,
// or defers it behind reclaim progress otherwise.
func (g *Group) admit(run func()) {
	if g.disabled || g.ExcessPages() <= g.maxEvictInFlight {
		run()
		return
	}
	g.throttled.Push(throttledEntry{run: run})
}

// ThrottledFaults returns how many fault admissions are currently waiting
// on reclaim progress.
func (g *Group) ThrottledFaults() int { return g.throttled.Len() }

func (g *Group) startEviction(p mem.PageID) {
	slot, ok := g.backend.SlotFor(p)
	if !ok {
		g.stats.SwapFullEvents++
		// One trace event per group, not per attempt: a full device stays
		// full for many reclaim ticks, and the counter carries the volume.
		if g.stats.SwapFullEvents == 1 {
			g.em.Emit(g.eng.NowSeconds(), trace.CgroupSwapFull, "eviction found swap device full")
		}
		return
	}
	g.table.SetState(p, mem.StateEvicting)
	g.table.SetSwapOffset(p, slot)
	g.evictInFlight++
	var e *evictRec
	if n := len(g.evictFree); n > 0 {
		e = g.evictFree[n-1]
		g.evictFree[n-1] = nil
		g.evictFree = g.evictFree[:n-1]
	} else {
		e = &evictRec{g: g}
		e.doneF = e.done
	}
	e.p, e.slot = p, slot
	g.backend.WritePage(slot, e.doneF)
}

// done runs when the eviction's write-back completes. The record recycles
// immediately (the callback fires exactly once).
func (e *evictRec) done() {
	g, p, slot := e.g, e.p, e.slot
	g.evictFree = append(g.evictFree, e)
	g.evictInFlight--
	if g.disabled {
		return
	}
	// Direct-reclaim pacing: while the group is far over its
	// reservation, two evictions must complete per admitted fault so
	// reclaim gains net ground (direct reclaim frees a cluster of
	// pages per allocation stall); near the reservation the exchange
	// is one-for-one.
	if g.ExcessPages() > 4*g.maxEvictInFlight {
		g.evictSinceAdmit++
		if g.evictSinceAdmit >= 2 {
			g.evictSinceAdmit = 0
			g.drainThrottled(1)
		}
	} else {
		g.drainThrottled(1)
	}
	switch g.table.State(p) {
	case mem.StateEvicting:
		// Note: the table's dirty bit is the migration dirty log
		// ("modified since last sent to the destination"), not a
		// device write-back bit, so eviction leaves it untouched.
		g.table.SetState(p, mem.StateSwapped)
		g.stats.SwapOutPages++
	default:
		// The guest touched the page while the write was in flight;
		// the eviction was cancelled and the slot is stale.
		g.backend.Release(slot)
		g.stats.CancelledEvict++
	}
}

// CancelEviction returns an Evicting page to Resident (the guest wrote to
// it). The in-flight write-back completes harmlessly and releases its slot.
func (g *Group) CancelEviction(p mem.PageID) {
	if g.table.State(p) != mem.StateEvicting {
		panic("cgroup: CancelEviction on page not evicting")
	}
	g.table.SetState(p, mem.StateResident)
}

// FaultIn starts (or joins) a swap-in of page p; done runs when the page is
// resident. The page must be Swapped or already Faulting. Faulting pages
// occupy RAM immediately, which can push the group over its reservation and
// trigger more evictions — the thrash feedback loop. Under heavy excess
// the admission is deferred behind reclaim progress (direct reclaim).
func (g *Group) FaultIn(p mem.PageID, done func()) {
	if g.table.State(p) == mem.StateFaulting {
		// Already in flight: join without consuming an admission slot.
		if done != nil {
			g.addWaiter(p, done)
		}
		return
	}
	if g.disabled || g.ExcessPages() <= g.maxEvictInFlight {
		// Admitted immediately: no deferral record needed.
		g.faultInNow(p, done)
		return
	}
	g.throttled.Push(throttledEntry{p: p, done: done})
}

func (g *Group) newFaultRec() *faultRec {
	if n := len(g.faultFree); n > 0 {
		r := g.faultFree[n-1]
		g.faultFree[n-1] = nil
		g.faultFree = g.faultFree[:n-1]
		return r
	}
	r := &faultRec{g: g}
	r.readF = r.readDone
	return r
}

func (g *Group) faultInNow(p mem.PageID, done func()) {
	switch g.table.State(p) {
	case mem.StateFaulting:
		// Another admission for the same page ran first; join it.
		if done != nil {
			g.addWaiter(p, done)
		}
		return
	case mem.StateSwapped:
	case mem.StateResident, mem.StateEvicting:
		// Resolved while the admission waited (e.g. a pushed copy arrived
		// or an eviction was cancelled); nothing to read.
		if done != nil {
			done()
		}
		return
	default:
		panic(fmt.Sprintf("cgroup: FaultIn on %v page", g.table.State(p)))
	}
	g.table.SetState(p, mem.StateFaulting)
	if done != nil {
		g.addWaiter(p, done)
	}
	slot := g.table.SwapOffset(p)
	r := g.newFaultRec()
	r.p, r.slot = p, slot
	g.backend.ReadPage(slot, r.readF)
}

// readDone runs when the fault's swap read completes. The record recycles
// immediately (the callback fires exactly once).
func (r *faultRec) readDone() {
	g, p, slot := r.g, r.p, r.slot
	g.faultFree = append(g.faultFree, r)
	if g.disabled {
		return
	}
	if g.table.State(p) != mem.StateFaulting {
		// The table was replaced or the page force-resolved during
		// migration switchover; drop the stale completion.
		return
	}
	g.table.SetState(p, mem.StateResident)
	g.backend.Release(slot)
	g.stats.SwapInPages++
	g.wake(p)
}

// addWaiter queues done behind page p's in-flight swap-in. Waiter lists
// are recycled through waiterFree, so a steady fault stream allocates none.
func (g *Group) addWaiter(p mem.PageID, done func()) {
	ws, ok := g.waiters[p]
	if n := len(g.waiterFree); !ok && n > 0 {
		ws = g.waiterFree[n-1]
		g.waiterFree[n-1] = nil
		g.waiterFree = g.waiterFree[:n-1]
	}
	g.waiters[p] = append(ws, done)
}

// wake runs page p's waiters in arrival order and recycles their list.
func (g *Group) wake(p mem.PageID) {
	ws, ok := g.waiters[p]
	if !ok {
		return
	}
	delete(g.waiters, p)
	for _, w := range ws {
		w()
	}
	clear(ws)
	g.waiterFree = append(g.waiterFree, ws[:0])
}

// FaultInCluster swaps in a batch of pages with a single clustered device
// read (swap readahead). Pages already in flight are joined, pages already
// usable are skipped; done runs once every page of the batch is usable.
// Admission is subject to the same direct-reclaim throttling as FaultIn.
// The batch is copied, so the caller may reuse pages once this returns.
func (g *Group) FaultInCluster(pages []mem.PageID, done func()) {
	var r *clusterRec
	if n := len(g.clusterFree); n > 0 {
		r = g.clusterFree[n-1]
		g.clusterFree[n-1] = nil
		g.clusterFree = g.clusterFree[:n-1]
	} else {
		r = &clusterRec{g: g}
		r.runF, r.readF, r.finishF = r.run, r.readDone, r.finish
	}
	r.pages = append(r.pages[:0], pages...)
	r.done = done
	g.admit(r.runF)
}

// run is the admitted swap-in.
func (r *clusterRec) run() {
	g := r.g
	// Re-validate: while the admission waited, some pages may have been
	// resolved by other means (a concurrent fault, an arriving copy).
	r.pending = 1
	batch := r.pages[:0]
	r.offs = r.offs[:0]
	for _, p := range r.pages {
		switch g.table.State(p) {
		case mem.StateSwapped:
			g.table.SetState(p, mem.StateFaulting)
			batch = append(batch, p)
			r.offs = append(r.offs, g.table.SwapOffset(p))
		case mem.StateFaulting:
			r.pending++
			g.addWaiter(p, r.finishF)
		default:
			// Already usable; nothing to read.
		}
	}
	r.pages = batch
	if len(batch) == 0 {
		r.finish()
		return
	}
	r.pending++
	g.backend.ReadCluster(r.offs, r.readF)
	// Release the setup guard now that all branches have registered their
	// own pending counts.
	r.finish()
}

// readDone runs when the clustered device read completes.
func (r *clusterRec) readDone() {
	defer r.finish()
	g := r.g
	if g.disabled {
		return
	}
	for i, p := range r.pages {
		if g.table.State(p) != mem.StateFaulting {
			continue
		}
		g.table.SetState(p, mem.StateResident)
		g.backend.Release(r.offs[i])
		g.stats.SwapInPages++
		g.wake(p)
	}
}

// finish ends one pending step; the last one recycles the record and then
// runs the caller's done.
func (r *clusterRec) finish() {
	r.pending--
	if r.pending > 0 {
		return
	}
	g, done := r.g, r.done
	r.done = nil
	g.clusterFree = append(g.clusterFree, r)
	if done != nil {
		done()
	}
}

// SwapRateWindow helps compute the pages-per-second swap rate over a
// window, as the paper's tracker does with iostat. Cancelled evictions
// count too: their write-back reached the device, and iostat counts
// sectors, not successful reclaims.
type SwapRateWindow struct {
	lastIn, lastOut, lastCancel int64
}

// Rate returns swap (in+out) pages per second since the previous call,
// given the elapsed seconds.
func (w *SwapRateWindow) Rate(s Stats, elapsedSeconds float64) float64 {
	in, out := w.Rates(s, elapsedSeconds)
	return in + out
}

// Rates returns the swap-in (read) and swap-out (write, including
// cancelled write-backs) page rates separately. The distinction matters
// for working-set tracking: writes happen whenever the tracker itself
// shrinks the reservation, but reads mean the VM missed pages it needed —
// only reads are evidence the reservation is too small.
func (w *SwapRateWindow) Rates(s Stats, elapsedSeconds float64) (inPages, outPages float64) {
	if elapsedSeconds <= 0 {
		return 0, 0
	}
	in := float64(s.SwapInPages - w.lastIn)
	out := float64(s.SwapOutPages-w.lastOut) + float64(s.CancelledEvict-w.lastCancel)
	w.lastIn, w.lastOut, w.lastCancel = s.SwapInPages, s.SwapOutPages, s.CancelledEvict
	return in / elapsedSeconds, out / elapsedSeconds
}
