// Batched page transfers: WriteBatch packs a run of contiguous fresh
// offsets into one request per copy (primary + K-1 replicas), and
// ReadBatch groups contiguous same-server offsets into one request/response
// pair per run. Both pay the v1 wire costs — client NIC, server NIC,
// latency — on the same simulated flows; what batching removes is the
// per-page message framing and per-page round trips. A one-page read or
// write is a run of one on the same wire records (writeOp and runRead).

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
// A run of fresh offsets (never written, not spilled, not lost, not
// tier-held) is one remote write; a single page, or a run touching any
// other offset, is written page by page through Write, which handles
// every degraded state. A run always bypasses the compressed local tier:
// bulk writes are migration traffic whose purpose is to move pages off
// the host.
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
	if len(offs) > 1 && fresh {
		ns.writeRemote(c, offs[0], len(offs), false, fn)
		return
	}
	each := countdown(len(offs), fn)
	for _, off := range offs {
		ns.Write(c, off, each)
	}
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
	each := ns.wrapLatency(countdown(len(offs), fn))
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

// runRead is one read of n >= 1 contiguous offsets from one server on the
// wire: a request out, one page message back. It is a pooled record whose
// callbacks (request arrival, disk-tier read, page delivery, timeout) are
// method values bound once.
type runRead struct {
	v       *VMD
	ns      *Namespace
	c       *Client
	s       *Server
	link    *serverLink
	first   uint32
	n       int
	fn      func() // runs once per delivered page
	settled bool
	refs

	arriveF, diskF, pageF, timeoutF func()
}

// readRun fetches the n contiguous offsets from first on one server, with
// timeout-driven per-page failover when fault tolerance is armed.
func (ns *Namespace) readRun(c *Client, s *Server, first uint32, n int, fn func()) {
	v := ns.vmd
	last := first + uint32(n) - 1
	for o := first; o <= last; o++ {
		ns.touch(o)
	}
	if ns.em.Enabled() {
		if n == 1 {
			ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRead, "offset %d from %s via %s", first, s.name, c.name)
		} else {
			ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRead, "offsets %d..%d batched from %s via %s", first, last, s.name, c.name)
		}
	}
	r := v.readFree.pop()
	if r == nil {
		r = &runRead{v: v}
		r.arriveF, r.diskF, r.pageF, r.timeoutF = r.arrive, r.diskDone, r.page, r.timeout
	}
	r.ns, r.c, r.s, r.link, r.first, r.n, r.fn = ns, c, s, c.links[s.idx], first, n, fn
	if v.ft {
		r.refs++
		v.eng.AfterSeconds(v.ftTimeout, r.timeoutF)
	}
	r.hold(r.link.toServer.SendMessage(RequestBytes, r.arriveF))
}

// release ends one queued callback, recycling the record after the last.
func (r *runRead) release() {
	if r.drop() {
		*r = runRead{v: r.v, arriveF: r.arriveF, diskF: r.diskF, pageF: r.pageF, timeoutF: r.timeoutF}
		r.v.readFree.push(r)
	}
}

func (r *runRead) last() uint32 { return r.first + uint32(r.n) - 1 }

// arrive runs when the request reaches the server. Pages the server holds
// on its disk tier are read from the disk before the response departs.
func (r *runRead) arrive() {
	if !r.settled && !r.s.down {
		ns, s := r.ns, r.s
		diskN := 0
		for o := r.first; o <= r.last(); o++ {
			if ns.placement[o] == s.idx && ns.onDisk.Test(mem.PageID(o)) {
				diskN++
			}
		}
		if diskN > 0 {
			s.diskServes += int64(diskN)
			r.refs++
			s.disk.Read(mem.PagesToBytes(diskN), r.diskF)
		} else {
			r.respond()
		}
	}
	r.release()
}

func (r *runRead) diskDone() {
	for o := r.first; o <= r.last(); o++ {
		if r.ns.placement[o] == r.s.idx {
			r.ns.maybePromote(r.s, o)
		}
	}
	r.respond()
	r.release()
}

func (r *runRead) respond() {
	r.s.pagesServed += int64(r.n)
	r.hold(r.link.fromServer.SendMessage(BatchMsgBytes(r.n), r.pageF))
}

// page runs when the page message reaches the client.
func (r *runRead) page() {
	if r.settled {
		r.release()
		return
	}
	r.settled = true
	c, n, fn := r.c, r.n, r.fn
	r.release()
	for i := 0; i < n; i++ {
		c.countRead(originRemote)
		if fn != nil {
			fn()
		}
	}
}

func (r *runRead) timeout() {
	if r.settled {
		r.release()
		return
	}
	r.settled = true
	ns, c, first, last, fn := r.ns, r.c, r.first, r.last(), r.fn
	ns.failoverReads += int64(r.n)
	if ns.em.Enabled() {
		if r.n == 1 {
			ns.em.Emitf(r.v.eng.NowSeconds(), trace.VMDFailover, "read of offset %d from %s timed out, retrying", first, r.s.name)
		} else {
			ns.em.Emitf(r.v.eng.NowSeconds(), trace.VMDFailover, "batched read of %d pages from %s timed out, retrying per page", r.n, r.s.name)
		}
	}
	r.release()
	for o := first; o <= last; o++ {
		ns.readCopy(c, o, fn)
	}
}
