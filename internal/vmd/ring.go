// Consistent-hash placement (StoreConfig.Placement == PlaceHash): servers
// project virtualNodes points onto a 64-bit ring keyed by stable name
// hashing; a page's candidates are the distinct servers met walking the
// ring clockwise from the page's key. A membership change therefore moves
// only the arc owned by the joining/leaving server, and a background
// rebalance pump migrates already-stored pages toward their ring-preferred
// server within a configured bandwidth budget.

package vmd

import (
	"fmt"
	"sort"

	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// ringRoot seeds every ring and namespace key derivation. A fixed constant
// keeps placement a pure function of names and offsets: byte-identical
// across runs, shard counts and GOMAXPROCS.
const ringRoot uint64 = 0x61676c6d69672d76 // "aglmig-v"

// virtualNodes is the number of ring points per server.
const virtualNodes = 16

// rebalanceInterval is the drip pump period in seconds; each firing moves
// at most the configured bandwidth budget's worth of pages for one period.
const rebalanceInterval = 0.1

type ringPoint struct {
	hash uint64
	srv  int16
}

// mix64 is a splitmix64-style finalizer: a cheap, high-quality 64-bit
// mixer for page keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rebuildRing recomputes the ring from the current server set. Points are
// stable per server name, so adding a server leaves every other server's
// points where they were — the consistent-hashing property.
func (v *VMD) rebuildRing() {
	pts := make([]ringPoint, 0, len(v.servers)*virtualNodes)
	for _, s := range v.servers {
		for i := 0; i < virtualNodes; i++ {
			h := sim.SeedForName(ringRoot, fmt.Sprintf("%s#%d", s.name, i))
			pts = append(pts, ringPoint{hash: h, srv: s.idx})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].srv < pts[j].srv
	})
	v.ring = pts
}

// pageKey maps (namespace, offset) onto the ring.
func (ns *Namespace) pageKey(off uint32) uint64 {
	return mix64(ns.hashKey ^ (uint64(off)+1)*0x9e3779b97f4a7c15)
}

// ringWalk calls visit for each distinct server met walking clockwise from
// key, stopping when visit returns true.
func (v *VMD) ringWalk(key uint64, visit func(idx int16) bool) {
	n := len(v.ring)
	if n == 0 {
		return
	}
	start := sort.Search(n, func(i int) bool { return v.ring[i].hash >= key })
	var seen uint64
	for i := 0; i < n; i++ {
		p := v.ring[(start+i)%n]
		bit := uint64(1) << uint(p.srv)
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		if visit(p.srv) {
			return
		}
	}
}

// placeServer picks the server for one copy of (ns, off): ring order under
// PlaceHash, the v1 load-aware round robin otherwise. mask carries the
// servers this operation already knows to avoid; like pickServer, the mask
// is ignored when only one server exists, and servers whose gossiped
// capacity is zero are passed over while an alternative remains.
func (c *Client) placeServer(ns *Namespace, off uint32, mask uint64) *Server {
	v := c.vmd
	if v.ring == nil {
		return c.pickServer(mask)
	}
	n := len(c.links)
	if n == 0 {
		panic("vmd: client has no servers")
	}
	key := ns.pageKey(off)
	skip := func(idx int16) bool {
		if v.servers[idx].down {
			return true
		}
		return n > 1 && mask&(uint64(1)<<uint(idx)) != 0
	}
	var pick *Server
	v.ringWalk(key, func(idx int16) bool {
		if skip(idx) || c.links[idx].freeHint <= 0 {
			return false
		}
		pick = v.servers[idx]
		return true
	})
	if pick != nil {
		return pick
	}
	// Every eligible hint says full; take ring order anyway and let the
	// server NACK (hints may be stale in the optimistic direction too).
	v.ringWalk(key, func(idx int16) bool {
		if skip(idx) {
			return false
		}
		pick = v.servers[idx]
		return true
	})
	return pick
}

// ringPreferred returns the index of the first live server in ring order
// for the offset, or noServer.
func (v *VMD) ringPreferred(ns *Namespace, off uint32) int16 {
	want := noServer
	v.ringWalk(ns.pageKey(off), func(idx int16) bool {
		if v.servers[idx].down {
			return false
		}
		want = idx
		return true
	})
	return want
}

// rebalanceMove is one queued page migration toward its ring-preferred
// server.
type rebalanceMove struct {
	ns   *Namespace
	off  uint32
	from int16
	to   int16
}

// scheduleRebalance scans every namespace for primary pages no longer on
// their ring-preferred server and starts the drip pump. Called after a
// membership change (server join or restart); a zero bandwidth budget
// disables background moves.
func (v *VMD) scheduleRebalance() {
	if v.ring == nil || v.store.RebalanceBytesPerSec <= 0 {
		return
	}
	for _, ns := range v.namespaces {
		if ns.destroyed {
			continue
		}
		for off := range ns.placement {
			o := uint32(off)
			cur := ns.placement[off]
			if cur == noServer {
				continue
			}
			want := v.ringPreferred(ns, o)
			if want == noServer || want == cur || ns.holdsCopy(o, want) {
				continue
			}
			v.rebalQ = append(v.rebalQ, rebalanceMove{ns: ns, off: o, from: cur, to: want})
		}
	}
	v.startRebalancePump()
}

// startRebalancePump registers the drip ticker draining the rebalance
// queue within the bandwidth budget. The ticker unregisters itself when
// the queue empties.
func (v *VMD) startRebalancePump() {
	if v.rebalOn || len(v.rebalQ) == 0 {
		return
	}
	v.rebalOn = true
	perTick := int(float64(v.store.RebalanceBytesPerSec) * rebalanceInterval / float64(PageMsgBytes))
	if perTick < 1 {
		perTick = 1
	}
	v.eng.Every(v.eng.SecondsToTicks(rebalanceInterval), func(sim.Time) bool {
		for i := 0; i < perTick && len(v.rebalQ) > 0; i++ {
			mv := v.rebalQ[0]
			v.rebalQ = v.rebalQ[1:]
			v.startRebalanceMove(mv)
		}
		if len(v.rebalQ) == 0 {
			v.rebalOn = false
			return false
		}
		return true
	})
}

// startRebalanceMove validates and launches one page transfer. Validation
// repeats at arrival: the page may have been freed, moved or lost while
// the transfer was in flight.
func (v *VMD) startRebalanceMove(mv rebalanceMove) {
	ns := mv.ns
	if !v.rebalanceMoveValid(mv) {
		return
	}
	from := v.servers[mv.from]
	to := v.servers[mv.to]
	from.pagesServed++
	send := func() {
		v.interFlow(from, to).SendMessage(PageMsgBytes, func() {
			v.finishRebalanceMove(mv)
		})
	}
	if ns.onDisk.Test(mem.PageID(mv.off)) {
		from.diskServes++
		from.disk.Read(mem.PageSize, send)
	} else {
		send()
	}
}

// rebalanceMoveValid checks a move is still worth doing: the page is still
// primary on `from`, the target is live with room, and no copy already
// lives there.
func (v *VMD) rebalanceMoveValid(mv rebalanceMove) bool {
	ns := mv.ns
	if ns.destroyed || ns.placement[mv.off] != mv.from {
		return false
	}
	from := v.servers[mv.from]
	to := v.servers[mv.to]
	if from.down || to.down || ns.holdsCopy(mv.off, mv.to) {
		return false
	}
	return to.freePages() > 0
}

// finishRebalanceMove lands a rebalance transfer: allocate at the target,
// release the source slot, and repoint the placement table.
func (v *VMD) finishRebalanceMove(mv rebalanceMove) {
	ns := mv.ns
	if !v.rebalanceMoveValid(mv) {
		return
	}
	from := v.servers[mv.from]
	to := v.servers[mv.to]
	onDisk := false
	if to.used < to.capacity {
		to.used++
	} else if to.disk != nil && to.diskUsed < to.diskCap {
		to.diskUsed++
		to.diskStores++
		onDisk = true
	} else {
		return
	}
	to.pagesStored++
	ns.releaseSlot(mv.off, from)
	ns.placement[mv.off] = mv.to
	if onDisk {
		ns.onDisk.Set(mem.PageID(mv.off))
	}
	ns.rebalanced++
	if ns.em.Enabled() {
		ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRebalance, "offset %d moved %s -> %s (ring-preferred)", mv.off, from.name, to.name)
	}
	if onDisk {
		to.disk.Write(mem.PageSize, nil)
	}
}
