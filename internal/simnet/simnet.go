// Package simnet models the cluster's Ethernet at flow granularity. Each
// host owns a full-duplex NIC with finite egress and ingress bandwidth;
// traffic moves over point-to-point flows (application request/response
// streams, the migration TCP connection, demand-paging RPCs, VMD page
// reads/writes). Every simulated tick the network arbitrates bandwidth
// among flows with pending bytes using max-min fairness across all egress
// and ingress ports — the same first-order behaviour TCP flows sharing a
// switch exhibit — and delivers bytes after the flow's one-way latency.
//
// This is where the paper's interference effects come from: a pre-copy
// stream saturating the source NIC steals bandwidth from the application's
// request/response traffic, and VMD reads at the destination compete with
// active-push traffic.
package simnet

import (
	"fmt"

	"agilemig/internal/fifo"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// Network owns all NICs and flows and performs per-tick arbitration. It
// registers itself in sim.PhaseNetwork.
type Network struct {
	eng   *sim.Engine
	nics  []*NIC
	flows []*Flow
	// msgFree holds the message queues of closed flows, emptied, for the
	// next flow that queues a message.
	msgFree []fifo.Queue[pendingMessage]

	// arbitration scratch, reused across ticks to keep the per-tick path
	// allocation-free
	active []*Flow
	ports  []*NIC

	// lossRNG drives message-loss decisions. It is created lazily by the
	// first SetLossRate call, so fault-free runs draw nothing from it and
	// stay byte-identical to builds without fault injection.
	lossRNG *sim.RNG

	// em records flow open/close events; nil (the default) records nothing.
	em *trace.Emitter
}

// SetTrace attaches a trace bus; flow lifecycle events are recorded under
// the "net" actor. A nil trace detaches.
func (n *Network) SetTrace(tr *trace.Trace) {
	n.em = tr.Emitter(trace.ScopeCluster, "net")
}

// RegisterMetrics registers every NIC's cumulative traffic as gauges
// ("net/<nic>/tx.bytes", "net/<nic>/rx.bytes"). Call after the NICs exist.
func (n *Network) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, nc := range n.nics {
		nc := nc
		reg.Gauge("net/"+nc.name+"/tx.bytes", func() float64 { return float64(nc.egressBytes) })
		reg.Gauge("net/"+nc.name+"/rx.bytes", func() float64 { return float64(nc.ingressBytes) })
	}
}

// New returns a network bound to the engine.
func New(eng *sim.Engine) *Network {
	n := &Network{eng: eng}
	eng.AddTicker(sim.PhaseNetwork, n)
	return n
}

// NIC is one host's network interface.
type NIC struct {
	name       string
	egressBpt  int64 // bytes per tick
	ingressBpt int64
	net        *Network

	// down, when set, stops the NIC from transmitting or accepting
	// deliveries: egress flows are excluded from arbitration and in-transit
	// bytes destined here are held on the wire until the NIC comes back.
	down bool
	// lossRate, when positive, drops each framed message offered on a flow
	// touching this NIC with that probability (the message's bytes still
	// travel; its callback never fires — a corrupted frame).
	lossRate float64

	// statistics
	egressBytes  int64
	ingressBytes int64
	msgsLost     int64

	// arbitration scratch (valid only within one arbitrate call)
	arbMark  bool
	arbEgCap int64
	arbInCap int64
	arbEgCnt int
	arbInCnt int
}

// NewNIC creates a full-duplex NIC with the given bandwidth in bytes per
// second (e.g. 1 Gbps Ethernet = 125_000_000).
func (n *Network) NewNIC(name string, bytesPerSecond int64) *NIC {
	tps := n.eng.TicksPerSecond()
	bpt := int64(float64(bytesPerSecond) / tps)
	if bpt < 1 {
		bpt = 1
	}
	nic := &NIC{name: name, egressBpt: bpt, ingressBpt: bpt, net: n}
	n.nics = append(n.nics, nic)
	return nic
}

// Name returns the NIC's name.
func (nc *NIC) Name() string { return nc.name }

// BytesSent returns cumulative bytes transmitted by this NIC.
func (nc *NIC) BytesSent() int64 { return nc.egressBytes }

// BytesReceived returns cumulative bytes received by this NIC.
func (nc *NIC) BytesReceived() int64 { return nc.ingressBytes }

// NICByName returns the named NIC, or nil.
func (n *Network) NICByName(name string) *NIC {
	for _, nc := range n.nics {
		if nc.name == name {
			return nc
		}
	}
	return nil
}

// SetDown changes the NIC's link state. While down the NIC neither
// transmits nor accepts deliveries; flows keep their backlog and in-transit
// bytes wait on the wire, so traffic resumes (late, in order) when the link
// returns.
func (nc *NIC) SetDown(down bool) {
	if nc.down == down {
		return
	}
	nc.down = down
	if nc.net.em.Enabled() {
		kind := trace.LinkUp
		if down {
			kind = trace.LinkDown
		}
		nc.net.em.Emitf(nc.net.eng.NowSeconds(), kind, "nic %s", nc.name)
	}
}

// Down reports whether the NIC's link is down.
func (nc *NIC) Down() bool { return nc.down }

// SetLossRate opens (rate > 0) or closes (rate <= 0) a message-loss window
// on the NIC. The first call with a positive rate lazily seeds the
// network's loss stream from the given seed; fault-free runs never touch
// it. Rates above 1 clamp to 1.
func (nc *NIC) SetLossRate(rate float64, seed uint64) {
	if rate > 1 {
		rate = 1
	}
	if rate < 0 {
		rate = 0
	}
	nc.lossRate = rate
	if rate > 0 && nc.net.lossRNG == nil {
		nc.net.lossRNG = sim.NewRNG(seed)
	}
}

// MessagesLost returns how many framed messages were dropped by loss
// windows touching this NIC (counted at the sending side).
func (nc *NIC) MessagesLost() int64 { return nc.msgsLost }

type pendingMessage struct {
	endOffset int64 // cumulative delivered-byte position completing this message
	fn        func()
}

type inFlight struct {
	arrive sim.Time
	bytes  int64
}

// Flow is a reliable, ordered byte stream between two NICs (one direction).
// Callers either push raw bytes (Send) or framed messages whose callback
// fires when the last byte arrives (SendMessage). Message callbacks fire in
// FIFO order.
type Flow struct {
	name    string
	src     *NIC
	dst     *NIC
	latency sim.Duration
	net     *Network

	backlog   int64 // offered, not yet transmitted
	offered   int64 // cumulative offered bytes
	delivered int64 // cumulative delivered bytes
	closed    bool

	// transit holds the bytes on the wire in arrival order, at most one
	// entry per tick of latency; inTransit is their sum.
	transit   fifo.Queue[inFlight]
	inTransit int64
	// msgs holds the pending message callbacks in send order. A migration
	// stream queues a whole send window of 16-byte records on it; the queue
	// is taken from the network's free list and returned there on Close.
	msgs fifo.Queue[pendingMessage]

	// capBpt, when positive, limits the flow's transmission rate to that
	// many bytes per tick regardless of the fair share the arbiter would
	// grant (a token-bucket shaped stream, e.g. a per-migration bandwidth
	// cap from the control plane). Zero means uncapped.
	capBpt int64

	// arbitration scratch
	rate    int64
	settled bool
}

// NewFlow creates a flow from src to dst with the given one-way latency.
// Bytes transmitted in tick T are delivered at tick T+1+latencyTicks
// (store-and-forward plus propagation).
func (n *Network) NewFlow(name string, src, dst *NIC, latency sim.Duration) *Flow {
	if src == dst {
		panic("simnet: flow with identical endpoints")
	}
	f := &Flow{name: name, src: src, dst: dst, latency: latency, net: n}
	n.flows = append(n.flows, f)
	if n.em.Enabled() {
		n.em.Emitf(n.eng.NowSeconds(), trace.FlowOpen, "%s (%s -> %s)", name, src.name, dst.name)
	}
	return f
}

// Name returns the flow's name.
func (f *Flow) Name() string { return f.name }

// SetRateCapBytesPerSecond shapes the flow to at most bytesPerSecond,
// regardless of the fair share arbitration would grant. The cap acts as a
// demand ceiling in max-min arbitration, so capacity a capped flow leaves
// unused is redistributed to competing flows on the same ports. Zero (or
// negative) removes the cap; a positive cap is clamped to at least one
// byte per tick, mirroring NIC bandwidth quantisation.
func (f *Flow) SetRateCapBytesPerSecond(bytesPerSecond int64) {
	if bytesPerSecond <= 0 {
		f.capBpt = 0
		return
	}
	bpt := int64(float64(bytesPerSecond) / f.net.eng.TicksPerSecond())
	if bpt < 1 {
		bpt = 1
	}
	f.capBpt = bpt
}

// demand returns the bytes the flow wants to transmit this tick: its
// backlog, ceilinged by the rate cap when one is set.
func (f *Flow) demand() int64 {
	if f.capBpt > 0 && f.backlog > f.capBpt {
		return f.capBpt
	}
	return f.backlog
}

// Send offers raw stream bytes with no completion notification.
func (f *Flow) Send(bytes int64) {
	if bytes < 0 {
		panic("simnet: negative send")
	}
	if f.closed {
		return
	}
	f.backlog += bytes
	f.offered += bytes
}

// SendMessage offers a framed message; fn (if non-nil) runs when its final
// byte is delivered at the destination. Zero-byte messages are delivered
// after the flow latency behind any queued bytes. During a loss window on
// either endpoint the message may be dropped: its bytes still travel (the
// frame is sent but arrives corrupted), but fn never fires — callers with
// at-least-once requirements pair SendMessage with a timeout. It reports
// whether fn was queued: false for a nil fn, a closed flow (which drops the
// bytes too) or a loss-window drop. A queued fn can still never fire if the
// flow is closed before delivery.
func (f *Flow) SendMessage(bytes int64, fn func()) bool {
	if bytes < 0 {
		panic("simnet: negative message size")
	}
	if f.closed {
		return false
	}
	f.backlog += bytes
	f.offered += bytes
	if fn == nil || f.lost(bytes) {
		return false
	}
	if f.msgs.Cap() == 0 {
		f.msgs = f.net.takeMsgQueue()
	}
	f.msgs.Push(pendingMessage{endOffset: f.offered, fn: fn})
	return true
}

// takeMsgQueue returns an empty message queue from the free list, or a
// zero queue (no storage) when the list is empty.
func (n *Network) takeMsgQueue() fifo.Queue[pendingMessage] {
	k := len(n.msgFree)
	if k == 0 {
		return fifo.Queue[pendingMessage]{}
	}
	q := n.msgFree[k-1]
	n.msgFree[k-1] = fifo.Queue[pendingMessage]{}
	n.msgFree = n.msgFree[:k-1]
	return q
}

// lost decides whether the message just offered falls inside a loss window
// (one draw against the larger endpoint rate).
func (f *Flow) lost(bytes int64) bool {
	rate := f.src.lossRate
	if f.dst.lossRate > rate {
		rate = f.dst.lossRate
	}
	if rate <= 0 || f.net.lossRNG == nil || f.net.lossRNG.Float64() >= rate {
		return false
	}
	if f.src.lossRate >= f.dst.lossRate {
		f.src.msgsLost++
	} else {
		f.dst.msgsLost++
	}
	if f.net.em.Enabled() {
		f.net.em.Emitf(f.net.eng.NowSeconds(), trace.MessageLost, "%s: %d-byte message dropped", f.name, bytes)
	}
	return true
}

// Close drops any undelivered traffic and ignores future sends. Pending
// message callbacks never fire: the message queue is cleared and goes back
// to the network's free list. The migration engines close their flows
// when a migration completes or aborts.
func (f *Flow) Close() {
	if f.closed {
		return
	}
	if f.net.em.Enabled() {
		f.net.em.Emitf(f.net.eng.NowSeconds(), trace.FlowClose, "%s (%d bytes delivered)", f.name, f.delivered)
	}
	f.closed = true
	f.backlog = 0
	f.transit, f.inTransit = fifo.Queue[inFlight]{}, 0
	if f.msgs.Cap() > 0 {
		f.msgs.Reset()
		f.net.msgFree = append(f.net.msgFree, f.msgs)
		f.msgs = fifo.Queue[pendingMessage]{}
	}
}

// Closed reports whether the flow has been closed.
func (f *Flow) Closed() bool { return f.closed }

// Backlog returns bytes offered but not yet transmitted.
func (f *Flow) Backlog() int64 { return f.backlog }

// Delivered returns cumulative bytes delivered to the destination.
func (f *Flow) Delivered() int64 { return f.delivered }

// Offered returns cumulative bytes offered to the flow.
func (f *Flow) Offered() int64 { return f.offered }

// InFlight returns bytes transmitted but not yet delivered.
func (f *Flow) InFlight() int64 { return f.inTransit }

// Tick delivers due bytes and then arbitrates this tick's bandwidth.
func (n *Network) Tick(now sim.Time) {
	n.deliver(now)
	n.arbitrate()
}

// NextWake reports when the network next has work: immediately while any
// flow has a backlog to arbitrate (or a deliverable message), otherwise at
// the earliest in-transit arrival. With no backlog and nothing in transit a
// network tick is an exact no-op, so the engine may skip ahead.
func (n *Network) NextWake(now sim.Time) (sim.Time, bool) {
	wake := sim.Never
	for _, f := range n.flows {
		if f.closed {
			continue
		}
		if f.src.down || f.dst.down {
			// The flow is frozen: no transmission, no delivery. The link-up
			// fault event already sits in the engine's queue and bounds any
			// idle jump, so a held backlog or transit queue must not pin the
			// clock to every tick.
			continue
		}
		if f.backlog > 0 {
			return now + 1, true
		}
		if f.msgs.Len() > 0 && f.msgs.Front().endOffset <= f.delivered {
			return now + 1, true
		}
		// transit is queued in arrival order, so the head is earliest.
		if f.transit.Len() > 0 && f.transit.Front().arrive < wake {
			wake = f.transit.Front().arrive
		}
	}
	return wake, true
}

func (n *Network) deliver(now sim.Time) {
	for _, f := range n.flows {
		if f.closed || f.dst.down {
			continue
		}
		for f.transit.Len() > 0 && f.transit.Front().arrive <= now {
			bytes := f.transit.Pop().bytes
			f.inTransit -= bytes
			f.delivered += bytes
			f.dst.ingressBytes += bytes
		}
		f.transit.Compact()
		// A callback may send on this flow (growing its queue) or close it
		// (emptying it), so the loop re-reads the queue on every pass.
		for f.msgs.Len() > 0 && f.msgs.Front().endOffset <= f.delivered {
			f.msgs.Pop().fn()
		}
		f.msgs.Compact()
	}
}

// arbitrate assigns this tick's transmission rate to every flow with a
// backlog using progressive filling (max-min fairness): repeatedly find the
// most constrained port, give its flows an equal share, settle them, and
// recompute. Flows whose demand (backlog) is below their share settle at
// their demand, returning capacity to others.
func (n *Network) arbitrate() {
	active := n.activeFlows()
	if len(active) == 0 {
		return
	}
	// Per-port capacity and unsettled-flow counts live in scratch fields on
	// the NICs themselves (no per-tick maps); ports lists the NICs touched.
	ports := n.ports[:0]
	for _, f := range active {
		f.rate = 0
		f.settled = false
		for _, nic := range [2]*NIC{f.src, f.dst} {
			if !nic.arbMark {
				nic.arbMark = true
				nic.arbEgCap = nic.egressBpt
				nic.arbInCap = nic.ingressBpt
				nic.arbEgCnt = 0
				nic.arbInCnt = 0
				ports = append(ports, nic)
			}
		}
		f.src.arbEgCnt++
		f.dst.arbInCnt++
	}
	n.ports = ports
	remaining := len(active)
	for remaining > 0 {
		// Find the bottleneck share across all ports with unsettled flows.
		share := int64(-1)
		for _, nic := range ports {
			if nic.arbEgCnt > 0 {
				s := nic.arbEgCap / int64(nic.arbEgCnt)
				if share < 0 || s < share {
					share = s
				}
			}
			if nic.arbInCnt > 0 {
				s := nic.arbInCap / int64(nic.arbInCnt)
				if share < 0 || s < share {
					share = s
				}
			}
		}
		if share < 0 {
			break
		}
		// Settle flows whose demand is at or below the share; if none,
		// settle every flow on the bottleneck port at exactly the share.
		settledAny := false
		for _, f := range active {
			if f.settled {
				continue
			}
			demand := f.demand()
			if demand <= share {
				f.rate = demand
				f.settled = true
				settledAny = true
				f.src.arbEgCap -= demand
				f.dst.arbInCap -= demand
				f.src.arbEgCnt--
				f.dst.arbInCnt--
				remaining--
			}
		}
		if settledAny {
			continue
		}
		// No flow is demand-limited: the bottleneck port's flows each get
		// the share. Identify the port achieving the minimum.
		for _, f := range active {
			if f.settled {
				continue
			}
			bottleneck := f.src.arbEgCap/int64(f.src.arbEgCnt) == share ||
				f.dst.arbInCap/int64(f.dst.arbInCnt) == share
			if !bottleneck {
				continue
			}
			f.rate = share
			f.settled = true
			f.src.arbEgCap -= share
			f.dst.arbInCap -= share
			f.src.arbEgCnt--
			f.dst.arbInCnt--
			remaining--
		}
	}
	for _, nic := range ports {
		nic.arbMark = false
	}
	now := n.eng.Now()
	for _, f := range active {
		if f.rate <= 0 {
			continue
		}
		bytes := f.rate
		if bytes > f.backlog {
			bytes = f.backlog
		}
		f.backlog -= bytes
		f.src.egressBytes += bytes
		f.transit.Push(inFlight{arrive: now + 1 + sim.Time(f.latency), bytes: bytes})
		f.inTransit += bytes
	}
}

func (n *Network) activeFlows() []*Flow {
	active := n.active[:0]
	for _, f := range n.flows {
		if !f.closed && f.backlog > 0 && !f.src.down && !f.dst.down {
			active = append(active, f)
		}
	}
	n.active = active
	return active
}

// String describes the network for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{%d nics, %d flows}", len(n.nics), len(n.flows))
}
