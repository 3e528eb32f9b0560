// Batched page transfers: WriteBatch packs a run of contiguous fresh
// offsets into one request per copy (primary + K-1 replicas), and
// ReadBatch groups contiguous same-server offsets into one request/response
// pair per run. Both pay the v1 wire costs — client NIC, server NIC,
// latency — on the same simulated flows; what batching removes is the
// per-page message framing and per-page round trips.

package vmd

import (
	"agilemig/internal/mem"
	"agilemig/internal/trace"
)

// BatchMsgBytes is the wire size of an n-page batched transfer: the page
// bodies plus one shared header (same 64-byte framing a single PageMsgBytes
// transfer pays).
func BatchMsgBytes(n int) int64 {
	return mem.PagesToBytes(n) + 64
}

// WriteBatch stores a run of pages at strictly ascending contiguous
// offsets through the client, as one request per copy. fn runs when every
// copy of every page has been stored and acked.
//
// The fast path requires every offset to be fresh (never written, not
// spilled, not lost, not tier-held); otherwise — and for single-page runs —
// it falls back to per-page Write, which handles every degraded state.
// WriteBatch always bypasses the compressed local tier: bulk writes are
// migration traffic whose purpose is to move pages off the host.
func (ns *Namespace) WriteBatch(c *Client, offs []uint32, fn func()) {
	if !ns.clients[c] {
		panic("vmd: write through unattached client " + c.name + " on namespace " + ns.name)
	}
	if len(offs) == 0 {
		panic("vmd: empty WriteBatch")
	}
	if int(offs[len(offs)-1]) >= len(ns.placement) {
		panic("vmd: write past end of namespace")
	}
	fresh := true
	for i, off := range offs {
		if i > 0 && off != offs[i-1]+1 {
			panic("vmd: WriteBatch offsets must be contiguous ascending")
		}
		ns.invalidateStaging(off)
		if ns.placement[off] != noServer || ns.hasDegraded(off) || ns.ctHolder(off) != nil {
			fresh = false
		}
	}
	if len(offs) == 1 || !fresh {
		ns.writeBatchFallback(c, offs, fn)
		return
	}
	op := &batchOp{
		ns: ns, c: c, offs: offs, fn: fn,
		attempts: 2*len(c.links) + 2,
		replLeft: ns.k - 1,
		pending:  1,
	}
	op.sendPrimary()
}

// writeBatchFallback dispatches the run as individual v1 writes sharing a
// completion countdown. Used for single-page runs, runs touching degraded
// offsets, and batches whose primary placement exhausted its attempts.
func (ns *Namespace) writeBatchFallback(c *Client, offs []uint32, fn func()) {
	remaining := len(offs)
	each := func() {
		remaining--
		if remaining == 0 && fn != nil {
			fn()
		}
	}
	for _, off := range offs {
		ns.Write(c, off, each)
	}
}

// batchOp is one in-flight batched write: a primary copy of the whole run,
// then K-1 replica copies dispatched serially as each lands. It shares the
// writeOp exclusion-mask discipline: NACKers and timed-out servers are
// masked for the rest of the operation.
type batchOp struct {
	ns   *Namespace
	c    *Client
	offs []uint32
	fn   func()

	attempts int    // primary redirect budget
	nacked   uint64 // servers that NACKed or timed out
	placed   uint64 // servers holding a copy of this run
	pending  int    // copies dispatched, not yet settled
	replLeft int    // replica copies not yet dispatched
	counted  bool   // ns.stored was incremented for this run
}

// settleCopy marks one copy settled and dispatches the next replica (or
// completes the operation).
func (op *batchOp) settleCopy() {
	op.pending--
	if op.replLeft > 0 {
		op.replLeft--
		op.pending++
		op.sendReplica()
		return
	}
	if op.pending == 0 && op.fn != nil {
		op.fn()
	}
}

// sendPrimary places the whole run on one server, redirecting on NACK or
// timeout under the attempts budget; exhaustion falls back to per-page
// writes (which degrade further to the spill path if the pool really is
// full).
func (op *batchOp) sendPrimary() {
	ns := op.ns
	if op.attempts <= 0 {
		op.fallback()
		return
	}
	s := op.c.placeServer(ns, op.offs[0], op.nacked|op.placed)
	if s == nil {
		op.fallback()
		return
	}
	op.sendTo(s, true)
}

// fallback re-dispatches the run as per-page writes. Only reachable while
// nothing has landed (a timed-out landing is reverted before redirect), so
// the per-page path sees fresh offsets.
func (op *batchOp) fallback() {
	remaining := len(op.offs)
	each := func() {
		remaining--
		if remaining == 0 {
			op.settleCopy()
		}
	}
	for _, off := range op.offs {
		op.ns.writeRemote(op.c, off, false, each)
	}
	// Replicas are handled per-page by writeRemote (pending k each); the
	// batch replica phase is cancelled.
	op.replLeft = 0
}

// sendReplica places one replica copy of the run on a distinct server.
// Like v1 replicas it is best-effort: no distinct candidate settles
// silently (a later Restart's requeue restores the factor).
func (op *batchOp) sendReplica() {
	s := op.c.placeServer(op.ns, op.offs[0], op.nacked|op.placed)
	if s == nil {
		op.settleCopy()
		return
	}
	bit := uint64(1) << uint(s.idx)
	if (op.nacked|op.placed)&bit != 0 {
		// placeServer ignores the mask with a single candidate; a replica
		// must land on a distinct, untried server or not at all.
		op.settleCopy()
		return
	}
	op.sendTo(s, false)
}

// fallback note: writeRemote gives each page its own k-copy writeOp, so a
// fallen-back batch still reaches the configured replication factor.

// sendTo transmits one copy of the run and handles ack, NACK and (with
// fault tolerance armed) timeout.
func (op *batchOp) sendTo(s *Server, primary bool) {
	ns := op.ns
	c := op.c
	v := ns.vmd
	n := len(op.offs)
	link := c.links[s.idx]
	charged := int64(0)
	if link.freeHint > 0 {
		charged = int64(n)
		if charged > link.freeHint {
			charged = link.freeHint
		}
		link.freeHint -= charged
	}
	st := &sendState{}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, func() {
			op.timeout(s, st, link, primary, charged)
		})
	}
	link.toServer.SendMessage(BatchMsgBytes(n), func() {
		if st.settled || s.down {
			return
		}
		if s.freePages() < int64(n) {
			// NACK the whole run: the server cannot take all n pages.
			s.rejects++
			link.freeHint = 0
			if ns.em.Enabled() {
				ns.em.Emitf(v.eng.NowSeconds(), trace.VMDNack, "%s full, %s retrying %d-page batch at offset %d", s.name, c.name, n, op.offs[0])
			}
			link.fromServer.SendMessage(AckBytes, func() {
				if st.settled {
					return
				}
				st.settled = true
				c.retries++
				op.nacked |= uint64(1) << uint(s.idx)
				if primary {
					op.attempts--
					op.sendPrimary()
				} else {
					op.sendReplica()
				}
			})
			return
		}
		st.storedSrv = s
		op.placed |= uint64(1) << uint(s.idx)
		memRoom := s.capacity - s.used
		diskN := 0
		for i, off := range op.offs {
			onDisk := int64(i) >= memRoom
			if onDisk {
				s.diskUsed++
				s.diskStores++
				diskN++
			} else {
				s.used++
			}
			if primary {
				ns.placement[off] = s.idx
				if onDisk {
					ns.onDisk.Set(mem.PageID(off))
				}
				ns.touch(off)
			} else if ns.lost != nil && ns.placement[off] == noServer && ns.lost.Test(mem.PageID(off)) {
				// The primary's server crashed while this replica was on the
				// wire: the store resurrects the page as the new primary.
				ns.lost.Clear(mem.PageID(off))
				ns.lostPages--
				ns.placement[off] = s.idx
				if onDisk {
					ns.onDisk.Set(mem.PageID(off))
				}
			} else {
				ns.replicas[off] = append(ns.replicas[off], replCopy{srv: s.idx, onDisk: onDisk})
			}
		}
		if primary && !op.counted {
			ns.stored += int64(n)
			op.counted = true
		}
		s.pagesStored += int64(n)
		finish := func() {
			link.fromServer.SendMessage(AckBytes, func() {
				if st.settled {
					return
				}
				st.settled = true
				c.pagesWritten += int64(n)
				op.settleCopy()
			})
		}
		if diskN > 0 {
			st.storedDisk = true
			s.disk.Write(mem.PagesToBytes(diskN), finish)
		} else {
			finish()
		}
	})
}

// timeout abandons an unanswered copy of the run, reverting any landed
// state, and redirects it.
func (op *batchOp) timeout(s *Server, st *sendState, link *serverLink, primary bool, charged int64) {
	if st.settled {
		return
	}
	st.settled = true
	ns := op.ns
	if st.storedSrv != nil {
		for _, off := range op.offs {
			if ns.placement[off] == s.idx {
				ns.releaseSlot(off, s)
				ns.placement[off] = noServer
				if !primary {
					// A resurrected-primary replica reverts to lost.
					if ns.lost != nil {
						ns.lost.Set(mem.PageID(off))
						ns.lostPages++
					}
				}
			} else if !primary {
				if ns.removeCopy(off, s.idx) && !s.down {
					// removeCopy does not touch server accounting; the copy
					// tier is unknown here, but a batch lands memory-first,
					// so reverse in the same order via releaseSlot semantics.
					s.used--
				}
			}
		}
		op.placed &^= uint64(1) << uint(s.idx)
	} else if charged > 0 {
		link.freeHint += charged
	}
	op.nacked |= uint64(1) << uint(s.idx)
	op.c.retries++
	if primary {
		op.attempts--
		op.sendPrimary()
		return
	}
	op.sendReplica()
}

// ReadBatch fetches pages at ascending offsets through the client,
// grouping contiguous same-primary-server runs (up to the configured
// BatchPages) into one request/response pair each. Staged, tier-held,
// degraded and single offsets are served by their own paths, page by page.
// fn runs once every page has been delivered.
func (ns *Namespace) ReadBatch(c *Client, offs []uint32, fn func()) {
	if !ns.clients[c] {
		panic("vmd: read through unattached client " + c.name + " on namespace " + ns.name)
	}
	if len(offs) == 0 {
		panic("vmd: empty ReadBatch")
	}
	if int(offs[len(offs)-1]) >= len(ns.placement) {
		panic("vmd: read past end of namespace")
	}
	fn = ns.wrapReadSpan(fn, offs[0], len(offs))
	each := fn
	if len(offs) > 1 {
		remaining := len(offs)
		each = func() {
			remaining--
			if remaining == 0 && fn != nil {
				fn()
			}
		}
	}
	each = ns.wrapLatency(each)
	var pf *prefetcher
	if ns.vmd.store.Readahead {
		pf = ns.prefFor(c)
	}
	maxRun := ns.BatchPages()
	i := 0
	for i < len(offs) {
		off := offs[i]
		if pf != nil {
			if pf.take(off) {
				ns.serveStaged(pf, c, off, each)
				i++
				continue
			}
			pf.observe(off)
		}
		if st := ns.ctHolder(off); st != nil {
			ns.readCtier(st, c, off, each)
			i++
			continue
		}
		sIdx := ns.placement[off]
		j := i + 1
		for sIdx != noServer && j < len(offs) && j-i < maxRun && offs[j] == offs[j-1]+1 &&
			ns.placement[offs[j]] == sIdx && ns.ctHolder(offs[j]) == nil &&
			(pf == nil || !pf.staged[offs[j]]) {
			j++
		}
		if j-i == 1 {
			ns.readCopy(c, off, each)
		} else {
			ns.readRun(c, ns.vmd.servers[sIdx], off, j-i, each)
		}
		i = j
	}
}

// readRun fetches the n contiguous offsets from first on one server: a
// request out, one batched page message back, with timeout-driven
// per-page failover when fault tolerance is armed.
func (ns *Namespace) readRun(c *Client, s *Server, first uint32, n int, each func()) {
	v := ns.vmd
	last := first + uint32(n) - 1
	for o := first; o <= last; o++ {
		ns.touch(o)
	}
	if ns.em.Enabled() {
		ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRead, "offsets %d..%d batched from %s via %s", first, last, s.name, c.name)
	}
	link := c.links[s.idx]
	st := &sendState{}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, func() {
			if st.settled {
				return
			}
			st.settled = true
			ns.failoverReads += int64(n)
			if ns.em.Enabled() {
				ns.em.Emitf(v.eng.NowSeconds(), trace.VMDFailover, "batched read of %d pages from %s timed out, retrying per page", n, s.name)
			}
			for o := first; o <= last; o++ {
				ns.readCopy(c, o, each)
			}
		})
	}
	link.toServer.SendMessage(RequestBytes, func() {
		if st.settled || s.down {
			return
		}
		diskN := 0
		for o := first; o <= last; o++ {
			if ns.placement[o] == s.idx && ns.onDisk.Test(mem.PageID(o)) {
				diskN++
			}
		}
		respond := func() {
			s.pagesServed += int64(n)
			link.fromServer.SendMessage(BatchMsgBytes(n), func() {
				if st.settled {
					return
				}
				st.settled = true
				for i := 0; i < n; i++ {
					c.countRead(originRemote)
					each()
				}
			})
		}
		if diskN > 0 {
			s.diskServes += int64(diskN)
			s.disk.Read(mem.PagesToBytes(diskN), func() {
				for o := first; o <= last; o++ {
					if ns.placement[o] == s.idx {
						ns.maybePromote(s, o)
					}
				}
				respond()
			})
		} else {
			respond()
		}
	})
}
