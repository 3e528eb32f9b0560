package core

import (
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// Scatter-gather migration ([22], §VI): optimize the time until the source
// host is free, not the time until the VM's memory has a new home. The VM
// suspends immediately and resumes at the destination (like post-copy),
// but instead of streaming memory to the destination, the source scatters
// every resident page into the VM's VMD namespace — bounded only by the
// source NIC and the intermediaries, not by the destination. As each page
// lands, a 16-byte record tells the destination to mark it in the swapped
// bitmap; from then on the destination gathers it from the per-VM swap
// device like any Agile cold page. Pages the destination faults on before
// their scatter completes are served directly from source memory over the
// demand channel.

// startScatterGather initializes the technique (called from Start).
func (m *Migration) startScatterGather() {
	m.event(trace.ScatterStart, "scattering %d pages into the namespace", m.nPages)
	m.event(trace.Suspend, "immediate (scatter-gather)")
	m.vm.Suspend()
	m.open(&m.stopSpan, "stopped", m.rootSpan)
	m.open(&m.cpuSpan, "cpu-state", m.stopSpan)
	// The scatter stream runs through the stopped window and past
	// switchover until the source drains, so it is the root's child, not
	// the stopped window's.
	m.open(&m.phaseSpan, "scatter", m.rootSpan)
	m.pushBM = mem.NewBitmap(m.nPages)
	m.pushBM.SetAll()
	m.knownUntouched = mem.NewBitmap(m.nPages)
	m.state = phasePush
	m.pushFlow.SendMessage(cpuStateBytes, m.switchover)
}

// pumpScatter walks the remaining pages, scattering resident ones to the
// VMD and shipping by-reference records for the rest.
func (m *Migration) pumpScatter() {
	// Scattering starts immediately — it needs no destination involvement,
	// and the records queue behind the CPU-state message on the FIFO
	// stream, so they cannot arrive before the namespace attaches.
	budget := pumpPagesPerTick
	for budget > 0 {
		if m.scatterInFlight >= maxScatterInFlight {
			return
		}
		if m.pushFlow.Backlog() >= windowBytes {
			return
		}
		p := m.pushBM.NextSet(m.cursor)
		if p == mem.NoPage {
			if m.pushBM.Count() > 0 {
				// Deferred pages (in-flight evictions) remain behind the
				// cursor; wrap and retry.
				m.cursor = 0
				return
			}
			if m.scatterInFlight > 0 || m.faultInFlight > 0 {
				return
			}
			if !m.srcDrained {
				m.srcDrained = true
				m.event(trace.SourceDrained, "scatter complete after %d pages", m.result.PagesScattered)
				m.close(&m.phaseSpan, trace.Num("pages-sent", float64(m.result.PagesSent)))
				m.open(&m.residSpan, "residual", m.rootSpan)
				m.pushFlow.SendMessage(recordBytes, func() {
					m.maybeComplete()
				})
			}
			return
		}
		m.cursor = p + 1
		m.pushBM.Clear(p)
		consumed := 1
		switch m.srcTable.State(p) {
		case mem.StateSwapped:
			// Already on the per-VM swap device.
			m.sendScatterRecord(p, m.srcTable.SwapOffset(p))
		case mem.StateFaulting:
			// A guest fault was in flight at suspend time; its slot frees
			// on completion, so scatter the page once it lands.
			m.faultInFlight++
			p := p
			m.srcGroup.FaultIn(p, func() {
				m.faultInFlight--
				m.scatterPage(p)
			})
		case mem.StateEvicting:
			// The page's own eviction is already writing it to the
			// namespace; let it finish and pick the page up as Swapped on
			// the next wrap.
			m.pushBM.Set(p)
		case mem.StateUntouched:
			m.sendUntouchedRecord(p)
		default: // Resident
			consumed = m.scatterRun(p, budget)
		}
		budget -= consumed
	}
}

// scatterRun scatters a run of consecutive resident pages starting at p as
// one batched VMD write (one in-flight unit), bounded by BatchPages and the
// remaining pump budget. Returns the number of pages consumed; with
// batching off it scatters exactly one page the unbatched way.
func (m *Migration) scatterRun(p mem.PageID, budget int) int {
	maxRun := m.tun.BatchPages
	if maxRun > budget {
		maxRun = budget
	}
	if maxRun <= 1 {
		m.scatterPage(p)
		return 1
	}
	run := []mem.PageID{p}
	q := p + 1
	for int(q) < m.nPages && len(run) < maxRun && m.pushBM.Test(q) && m.srcTable.State(q) == mem.StateResident {
		m.pushBM.Clear(q)
		run = append(run, q)
		q++
	}
	m.cursor = q
	if len(run) == 1 {
		m.scatterPage(p)
		return 1
	}
	m.scatterInFlight++
	m.result.PagesScattered += int64(len(run))
	offs := make([]uint32, len(run))
	for i, r := range run {
		offs[i] = uint32(r)
	}
	var bsp trace.SpanID
	if m.sp.Enabled() {
		bsp = m.sp.Begin(m.eng.NowSeconds(), "scatter-batch", m.phaseSpan,
			trace.Num("pages", float64(len(run))))
	}
	ns := m.spec.Namespace
	src := m.spec.Source.VMDClient()
	ns.WriteBatch(src, offs, func() {
		m.scatterInFlight--
		m.sp.End(m.eng.NowSeconds(), bsp)
		for _, r := range run {
			m.freeSourcePage(r)
		}
		m.sendScatterRecords(p, len(run))
	})
	return len(run)
}

// scatterPage writes one resident page into the VM's namespace through the
// source's VMD client, then tells the destination where to find it and
// frees the source copy.
func (m *Migration) scatterPage(p mem.PageID) {
	m.scatterInFlight++
	m.result.PagesScattered++
	ns := m.spec.Namespace
	src := m.spec.Source.VMDClient()
	ns.Write(src, uint32(p), func() {
		m.scatterInFlight--
		m.freeSourcePage(p)
		m.sendScatterRecord(p, uint32(p))
	})
}

// sendScatterRecord ships a swapped-bitmap record to the destination after
// the page is durable on the VMD. Unlike Agile's pre-switchover offset
// records, these arrive while the destination VM runs, so a record may
// resolve faults already waiting on the page.
func (m *Migration) sendScatterRecord(p mem.PageID, off uint32) {
	m.result.OffsetRecords++
	m.sendPush(recordBytes, pushItem{p: p, arg: off, n: 1, kind: pushScatter})
}

// sendScatterRecords ships one record per page of the n batch-scattered
// pages from p (each at its own namespace offset) in a single message: the
// records share the wire like the page bodies did.
func (m *Migration) sendScatterRecords(p mem.PageID, n int) {
	m.result.OffsetRecords += int64(n)
	m.sendPush(int64(n)*recordBytes, pushItem{p: p, arg: uint32(p), n: uint16(n), kind: pushScatter})
}

// deliverScatterRecord lands one swapped-bitmap record at the destination.
func (m *Migration) deliverScatterRecord(p mem.PageID, off uint32) {
	t := m.destTable
	if t.State(p) == mem.StateUntouched {
		t.SetSwapOffset(p, off)
		t.SetState(p, mem.StateSwapped)
	}
	if ws, ok := m.pendingDemand[p]; ok {
		// Faults were waiting for this page; it is now reachable on
		// the swap device.
		delete(m.pendingDemand, p)
		m.destGroup.FaultIn(p, func() {
			m.finishDemand(p)
			for _, w := range ws {
				w()
			}
			m.maybeComplete()
		})
	}
}

// startGatherPrefetch actively pulls scattered pages into the
// destination's reservation after the source is free (the "gather" of the
// original system; without it, pages arrive only as the workload faults).
func (m *Migration) startGatherPrefetch() {
	m.event(trace.GatherStart, "prefetching scattered pages into %s", m.spec.Dest.Name())
	// The root span has just ended (complete runs first), but parent links
	// are structural, not lifetime-nested: the gather tail still belongs to
	// this migration's tree.
	var gsp trace.SpanID
	m.open(&gsp, "gather", m.rootSpan)
	var cursor mem.PageID
	inFlight := 0
	landed := func() { inFlight-- }
	batch := make([]mem.PageID, 0, swapInCluster) // FaultInCluster copies it
	done := false
	// The hint mirrors the tick body's guards exactly: whenever the body
	// would fall through without touching cursor/inFlight (finished, fetch
	// window full, or no reservation headroom), the tick is a no-op and the
	// engine may skip; fault completions and reclaim run off their own
	// wakes.
	hint := func(now sim.Time) (sim.Time, bool) {
		if done || inFlight >= maxSwapInFlight ||
			mem.BytesToPages(m.destGroup.ReservationBytes()) <= m.destTable.InRAM() {
			return sim.Never, true
		}
		return now + 1, true
	}
	m.eng.AddTickerFuncHinted(sim.PhaseControl, func(sim.Time) {
		if done {
			return
		}
		headroom := mem.BytesToPages(m.destGroup.ReservationBytes()) - m.destTable.InRAM()
		for inFlight < maxSwapInFlight && headroom > 0 {
			// Collect the next cluster of swapped pages.
			batch = batch[:0]
			for p := cursor; int(p) < m.nPages && len(batch) < swapInCluster; p++ {
				cursor = p + 1
				if m.destTable.State(p) == mem.StateSwapped {
					batch = append(batch, p)
				}
			}
			if len(batch) == 0 {
				if int(cursor) >= m.nPages {
					done = true
					m.close(&gsp)
				}
				return
			}
			inFlight++
			headroom -= len(batch)
			m.destGroup.FaultInCluster(batch, landed)
		}
	}, hint)
}
