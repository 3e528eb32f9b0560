// Readahead prefetch on demand-fault streams (StoreConfig.Readahead): a
// per-(namespace, client) detector watches the offsets of demand reads;
// k consecutive same-direction offsets arm an asynchronous readahead
// window that pulls the pages ahead of the stream into a client-side
// staging cache. Staged hits bypass the network entirely; useful windows
// double (up to raMaxWindow) and a broken stream resets. Prefetch traffic
// rides the same simulated flows as foreground reads, so it genuinely
// competes for NIC bandwidth.

package vmd

import (
	"agilemig/internal/mem"
	"agilemig/internal/trace"
)

// The readahead's fixed parameters.
const (
	// raTrigger is how many consecutive same-direction offsets arm a
	// readahead window.
	raTrigger = 4
	// raInitWindow is the first window size in pages; each useful window
	// doubles it up to raMaxWindow. A broken stream resets to raInitWindow.
	raInitWindow = 8
	raMaxWindow  = 64
	// raStagingPages bounds the client-side staging cache; the oldest
	// staged pages are discarded (counted as wasted) beyond it.
	raStagingPages = 512
)

// prefetcher is one client's readahead state on one namespace.
type prefetcher struct {
	ns *Namespace
	c  *Client

	lastOff uint32
	dir     int8 // +1 ascending, -1 descending, 0 unknown
	run     int  // current same-direction streak length
	seen    bool // lastOff is valid
	window  int  // next window size in pages
	busy    bool // a window is in flight

	staged   map[uint32]bool // pages ready in the staging cache
	order    []uint32        // FIFO of staged pages; may hold stale entries
	inflight map[uint32]bool // pages requested, not yet arrived

	issued int64 // pages requested by readahead
	hits   int64 // demand reads served from staging
	misses int64 // demand reads that had to go to the store
	wasted int64 // staged/fetched pages discarded unused

	// Per-window span accounting: the current window's span and how many of
	// its pages actually reached staging (a window that stages fewer pages
	// than it issued was partly refuted by invalidations or timeouts).
	windowSpan   trace.SpanID
	windowStaged int
}

// prefFor returns (lazily creating) the client's prefetcher. Callers gate
// on StoreConfig.Readahead.
func (ns *Namespace) prefFor(c *Client) *prefetcher {
	for _, pf := range ns.pref {
		if pf.c == c {
			return pf
		}
	}
	pf := &prefetcher{ns: ns, c: c, window: raInitWindow}
	pf.clearCache()
	ns.pref = append(ns.pref, pf)
	return pf
}

func (pf *prefetcher) clearCache() {
	pf.staged = make(map[uint32]bool)
	pf.order = nil
	pf.inflight = make(map[uint32]bool)
}

// clear drops all state (namespace destroyed).
func (pf *prefetcher) clear() {
	pf.clearCache()
	pf.seen = false
	pf.run = 0
	if pf.busy {
		pf.endWindow()
	}
}

// take consumes a staged page, reporting whether the read is a staging
// hit. The caller serves the page locally.
func (pf *prefetcher) take(off uint32) bool {
	if !pf.staged[off] {
		return false
	}
	delete(pf.staged, off)
	pf.hits++
	return true
}

// observe feeds a demand read that missed the staging cache.
func (pf *prefetcher) observe(off uint32) {
	pf.misses++
	pf.note(off)
	pf.maybeIssue(off)
}

// noteHit feeds a staged hit: the stream continues, and the next window
// can be pipelined, but no miss is counted.
func (pf *prefetcher) noteHit(off uint32) {
	pf.note(off)
	pf.maybeIssue(off)
}

// note updates the stream detector with one demand-read offset.
func (pf *prefetcher) note(off uint32) {
	switch {
	case !pf.seen:
		pf.seen = true
		pf.run = 1
		pf.dir = 0
	case off == pf.lastOff+1 && pf.dir >= 0:
		pf.dir = 1
		pf.run++
	case pf.lastOff > 0 && off == pf.lastOff-1 && pf.dir <= 0:
		pf.dir = -1
		pf.run++
	default:
		// Stream broken: restart detection and shrink the window back.
		pf.run = 1
		pf.dir = 0
		pf.window = raInitWindow
	}
	pf.lastOff = off
}

// maybeIssue launches the next readahead window when the detector has a
// streak, no window is in flight, and eligible offsets exist ahead of the
// stream.
func (pf *prefetcher) maybeIssue(off uint32) {
	ns := pf.ns
	if pf.busy || pf.dir == 0 || pf.run < raTrigger {
		return
	}
	limit := len(ns.placement)
	var batch []uint32
	cur := int64(off)
	// Walk ahead of the stream: remote-primary offsets are fetchable;
	// already staged/inflight ones are skipped (the window extends past
	// them); anything else ends the window — the stream is about to break
	// on it anyway. The walk is bounded so skip chains cannot spin.
	for scanned := 0; len(batch) < pf.window && scanned < 4*raMaxWindow; scanned++ {
		cur += int64(pf.dir)
		if cur < 0 || cur >= int64(limit) {
			break
		}
		o := uint32(cur)
		if pf.staged[o] || pf.inflight[o] {
			continue
		}
		if ns.placement[o] == noServer {
			break
		}
		batch = append(batch, o)
	}
	if len(batch) == 0 {
		return
	}
	pf.busy = true
	pf.issued += int64(len(batch))
	if pf.window < raMaxWindow {
		pf.window *= 2
		if pf.window > raMaxWindow {
			pf.window = raMaxWindow
		}
	}
	for _, o := range batch {
		pf.inflight[o] = true
	}
	if ns.em.Enabled() {
		ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDPrefetch, "readahead of %d pages from offset %d (dir %+d) for %s", len(batch), batch[0], pf.dir, pf.c.name)
	}
	pf.windowStaged = 0
	if ns.sp.Enabled() {
		pf.windowSpan = ns.sp.Begin(ns.vmd.eng.NowSeconds(), "prefetch-window", 0,
			trace.Num("from", float64(batch[0])),
			trace.Num("issued", float64(len(batch))))
	}
	pf.fetch(batch)
}

// endWindow closes the window: the next one may issue, and the window span
// records how much of the issued readahead actually landed in staging.
func (pf *prefetcher) endWindow() {
	pf.busy = false
	if pf.windowSpan != 0 {
		pf.ns.sp.End(pf.ns.vmd.eng.NowSeconds(), pf.windowSpan,
			trace.Num("staged", float64(pf.windowStaged)))
		pf.windowSpan = 0
	}
}

// fetch pulls a window into the staging cache, grouping contiguous
// same-server offsets into single transfers. The window completes (and
// unblocks the next one) when every group has arrived or timed out.
func (pf *prefetcher) fetch(batch []uint32) {
	ns := pf.ns
	v := ns.vmd
	groups := 0
	finishGroup := func() {
		groups--
		if groups == 0 {
			pf.endWindow()
		}
	}
	i := 0
	for i < len(batch) {
		sIdx := ns.placement[batch[i]]
		j := i + 1
		for j < len(batch) && batch[j] == batch[j-1]+pf.dirStep() && ns.placement[batch[j]] == sIdx {
			j++
		}
		run := batch[i:j]
		i = j
		if sIdx == noServer {
			// Raced with a free between collection and fetch: drop the run.
			for _, o := range run {
				delete(pf.inflight, o)
			}
			continue
		}
		groups++
		pf.fetchRun(v.servers[sIdx], run, finishGroup)
	}
	if groups == 0 {
		pf.endWindow()
	}
}

// dirStep returns the offset delta of the current stream direction.
func (pf *prefetcher) dirStep() uint32 {
	if pf.dir < 0 {
		return ^uint32(0) // -1
	}
	return 1
}

// fetchRun transfers one contiguous run from one server: a request out,
// one batched page message back. Arrived pages are staged unless they were
// invalidated while in flight.
func (pf *prefetcher) fetchRun(s *Server, run []uint32, done func()) {
	ns := pf.ns
	v := ns.vmd
	c := pf.c
	link := c.links[s.idx]
	st := &sendState{}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, func() {
			if st.settled {
				return
			}
			st.settled = true
			for _, o := range run {
				delete(pf.inflight, o)
			}
			done()
		})
	}
	link.toServer.SendMessage(RequestBytes, func() {
		if st.settled || s.down {
			return
		}
		diskN := 0
		for _, o := range run {
			if ns.placement[o] == s.idx && ns.onDisk.Test(mem.PageID(o)) {
				diskN++
			}
		}
		respond := func() {
			s.pagesServed += int64(len(run))
			link.fromServer.SendMessage(BatchMsgBytes(len(run)), func() {
				if st.settled {
					return
				}
				st.settled = true
				for _, o := range run {
					if !pf.inflight[o] {
						// Invalidated (written/freed) while on the wire.
						pf.wasted++
						continue
					}
					delete(pf.inflight, o)
					pf.staged[o] = true
					pf.order = append(pf.order, o)
					pf.windowStaged++
					c.prefetched++
				}
				pf.evictStaging()
				done()
			})
		}
		if diskN > 0 {
			s.diskServes += int64(diskN)
			s.disk.Read(mem.PagesToBytes(diskN), respond)
		} else {
			respond()
		}
	})
}

// evictStaging discards oldest staged pages beyond the cache budget.
func (pf *prefetcher) evictStaging() {
	for len(pf.staged) > raStagingPages && len(pf.order) > 0 {
		o := pf.order[0]
		pf.order = pf.order[1:]
		if pf.staged[o] {
			delete(pf.staged, o)
			pf.wasted++
		}
	}
}

// invalidate drops the offset from every prefetcher (the page was written
// or freed: staged bytes are stale).
func (ns *Namespace) invalidateStaging(off uint32) {
	for _, pf := range ns.pref {
		if pf.staged[off] {
			delete(pf.staged, off)
			pf.wasted++
		}
		if pf.inflight[off] {
			delete(pf.inflight, off)
		}
	}
}

// PrefetchStats returns cumulative readahead counters summed over the
// namespace's clients: pages requested, staging hits, misses, and pages
// fetched or staged that were never used.
func (ns *Namespace) PrefetchStats() (issued, hits, misses, wasted int64) {
	for _, pf := range ns.pref {
		issued += pf.issued
		hits += pf.hits
		misses += pf.misses
		wasted += pf.wasted
	}
	return issued, hits, misses, wasted
}
