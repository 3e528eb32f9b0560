// Package vmd implements the Virtualized Memory Device of the paper's §III-A
// and §IV-A: a distributed page store that aggregates the free memory of
// intermediate cluster hosts and exposes it to each hypervisor as a block
// device. The aggregate space is divided into namespaces; each migrating VM
// gets one namespace as its private, portable swap device.
//
// The VMD client module runs on source and destination hosts; the VMD
// server module runs on every intermediate host. They talk over the
// simulated network, so VMD traffic competes with migration and application
// traffic for NIC bandwidth exactly as it did on the paper's testbed.
// Placement is load-aware round-robin: the next server in rotation that
// reports unused memory receives the page; server memory is allocated only
// when a write arrives, and servers gossip their free capacity to clients
// periodically.
//
// # Fault tolerance
//
// The VMD treats remote-node failure and capacity exhaustion as runtime
// conditions, not configuration errors. A namespace can be created with a
// replication factor K (SetReplicas): every page is written to K distinct
// servers, a crashed server's pages stay readable from the surviving
// copies, and the pool re-replicates affected pages in the background. Pool
// exhaustion degrades to a spill onto the writing host's local swap disk
// (counted and traced). With EnableFaultTolerance armed, in-flight requests that a
// crash, link outage or message loss swallowed are retried after a timeout
// instead of hanging forever. All of this machinery is off by default: a
// fault-free run with K=1 executes the exact event sequence it always did.
package vmd

import (
	"fmt"

	"agilemig/internal/blockdev"
	"agilemig/internal/mem"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/trace"
)

// Message sizes on the wire. A stored page travels with a small header; the
// control messages mirror MemX's compact request records.
const (
	PageMsgBytes   = mem.PageSize + 64
	RequestBytes   = 64
	AckBytes       = 64
	GossipBytes    = 64
	gossipInterval = 1.0 // seconds between capacity updates
)

const noServer int16 = -1

// maxServers bounds the pool size so a write can track its per-attempt
// server exclusions in one machine word.
const maxServers = 64

// repairWindow bounds concurrent background re-replication transfers so
// repair traffic cannot monopolize the intermediate NICs after a crash.
const repairWindow = 32

// DefaultFaultTimeout is the request timeout (seconds) armed by
// EnableFaultTolerance when the caller passes no explicit value: generous
// next to the sub-millisecond request RTT, small next to migration phases.
const DefaultFaultTimeout = 0.25

// VMD coordinates servers, clients and namespaces.
type VMD struct {
	eng        *sim.Engine
	net        *simnet.Network
	servers    []*Server
	namespaces []*Namespace
	tr         *trace.Trace
	reg        *metrics.Registry

	replicas int // K for namespaces created afterwards (<=1: off)

	ft        bool    // fault tolerance armed: time out and retry requests
	ftTimeout float64 // seconds

	// Lazily created flows, only materialized in fault/spill scenarios so
	// fault-free runs keep their exact flow set.
	srvFlows  map[uint32]*simnet.Flow  // server->server (repair)
	peerFlows map[peerKey]*simnet.Flow // client->client (spill reads)

	repairQ    []repairItem
	repairBusy int
	repairRR   int

	// v2 store configuration (store.go). The zero value is exact v1
	// behavior: single-page transfers, no prefetch, flat tier, round-robin.
	store    StoreConfig
	ctierCap int64 // effective compressed-tier pages per client (cap x ratio)
	clients  []*Client

	ring      []ringPoint // consistent-hash points, sorted; nil under round-robin
	tierEpoch uint32      // coarse clock advanced by the tier scan ticker

	rebalQ  []rebalanceMove
	rebalOn bool // drip pump ticker currently registered
}

type peerKey struct{ from, to *Client }

type repairItem struct {
	ns  *Namespace
	off uint32
}

// New returns an empty VMD on the given network.
func New(eng *sim.Engine, net *simnet.Network) *VMD {
	return &VMD{eng: eng, net: net, replicas: 1}
}

// SetReplicas sets the replication factor K for namespaces created
// afterwards: each page is stored on min(K, servers) distinct servers.
// K<=1 disables replication (the default).
func (v *VMD) SetReplicas(k int) {
	if k < 1 {
		k = 1
	}
	v.replicas = k
}

// Replicas returns the configured replication factor.
func (v *VMD) Replicas() int { return v.replicas }

// EnableFaultTolerance arms request timeouts: a write or read whose server
// does not respond within timeoutSec simulated seconds (crash, link outage,
// lost message) is retried on the next candidate instead of hanging.
// timeoutSec <= 0 selects DefaultFaultTimeout. Fault-free runs should leave
// this off: the timers are pure overhead when every request is answered.
func (v *VMD) EnableFaultTolerance(timeoutSec float64) {
	if timeoutSec <= 0 {
		timeoutSec = DefaultFaultTimeout
	}
	v.ft = true
	v.ftTimeout = timeoutSec
}

// SetObserver attaches a trace bus and metrics registry. Namespaces
// created afterwards emit demand-read and NACK events; servers and
// clients (existing and future) register their counters as gauges. Either
// argument may be nil.
func (v *VMD) SetObserver(tr *trace.Trace, reg *metrics.Registry) {
	v.tr = tr
	v.reg = reg
	for _, s := range v.servers {
		s.registerMetrics(reg)
	}
}

// registerMetrics exposes the server's occupancy and traffic counters.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "vmd/" + s.name + "/"
	reg.Gauge(p+"used.pages", func() float64 { return float64(s.used) })
	reg.Gauge(p+"stored.pages", func() float64 { return float64(s.pagesStored) })
	reg.Gauge(p+"served.pages", func() float64 { return float64(s.pagesServed) })
	reg.Gauge(p+"rejects", func() float64 { return float64(s.rejects) })
	reg.Gauge(p+"down", func() float64 {
		if s.down {
			return 1
		}
		return 0
	})
}

// registerMetrics exposes the client's cumulative page traffic.
func (c *Client) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "vmd/" + c.name + "/"
	reg.Gauge(p+"written.pages", func() float64 { return float64(c.pagesWritten) })
	reg.Gauge(p+"read.pages", func() float64 { return float64(c.pagesRead) })
	reg.Gauge(p+"retries", func() float64 { return float64(c.retries) })
	if c.vmd.store.Readahead {
		reg.Gauge(p+"prefetched.pages", func() float64 { return float64(c.prefetched) })
		reg.Gauge(p+"staged.reads", func() float64 { return float64(c.reads[originStaged]) })
	}
}

// registerMetrics exposes the namespace's degradation counters.
func (ns *Namespace) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	p := "vmd/" + ns.name + "/"
	ns.readHist = reg.Histogram(p+"read.latency.seconds", metrics.DefaultLatencyBounds)
	reg.Gauge(p+"spilled.pages", func() float64 { return float64(ns.spilledPages) })
	reg.Gauge(p+"lost.pages", func() float64 { return float64(ns.lostPages) })
	reg.Gauge(p+"rereplicated.pages", func() float64 { return float64(ns.rereplicated) })
	reg.Gauge(p+"failover.reads", func() float64 { return float64(ns.failoverReads) })
	v := ns.vmd
	if v.store.Readahead {
		reg.Gauge(p+"prefetch.issued", func() float64 { i, _, _, _ := ns.PrefetchStats(); return float64(i) })
		reg.Gauge(p+"prefetch.hits", func() float64 { _, h, _, _ := ns.PrefetchStats(); return float64(h) })
		reg.Gauge(p+"prefetch.wasted", func() float64 { _, _, _, w := ns.PrefetchStats(); return float64(w) })
	}
	if v.store.Tiers.Enabled {
		reg.Gauge(p+"ctier.pages", func() float64 { return float64(ns.CtierPages()) })
		reg.Gauge(p+"tier.demotions", func() float64 { return float64(ns.demotions) })
		reg.Gauge(p+"tier.promotions", func() float64 { return float64(ns.promotions) })
	}
	if v.store.Placement == PlaceHash {
		reg.Gauge(p+"rebalanced.pages", func() float64 { return float64(ns.rebalanced) })
	}
}

// Server is the VMD server kernel module on one intermediate host. Memory
// is allocated on first write, never reserved in advance. A server may
// additionally contribute local disk (§IV-A: "it is possible to extend the
// amount of swap space available at the VMD by using excess disk space
// (HDs and/or SSDs) alongside the excess memory"): once its memory is
// full, new pages spill to the disk tier, and reads of spilled pages pay
// the device's bandwidth and latency before the network response departs.
type Server struct {
	vmd      *VMD
	idx      int16
	name     string
	nic      *simnet.NIC
	capacity int64 // memory pages
	used     int64 // memory pages in use
	down     bool

	disk     *blockdev.Device
	diskCap  int64
	diskUsed int64

	pagesStored int64 // cumulative successful writes
	pagesServed int64 // cumulative reads served
	diskStores  int64 // subset of stores that spilled to disk
	diskServes  int64 // subset of reads served from disk
	rejects     int64 // writes NACKed for lack of memory
}

// AttachDisk adds a disk tier of diskPages capacity behind the server's
// memory; pages spill to it only when the memory tier is full.
func (s *Server) AttachDisk(dev *blockdev.Device, diskPages int64) {
	if diskPages <= 0 {
		panic("vmd: disk tier with no capacity")
	}
	s.disk = dev
	s.diskCap = diskPages
}

// DiskStats returns (spilled stores, disk-served reads, pages on disk).
func (s *Server) DiskStats() (stores, serves, used int64) {
	return s.diskStores, s.diskServes, s.diskUsed
}

// freePages returns the server's remaining total capacity (memory + disk).
func (s *Server) freePages() int64 {
	free := s.capacity - s.used
	if s.disk != nil {
		free += s.diskCap - s.diskUsed
	}
	return free
}

// AddServer registers an intermediate host contributing capacityPages of
// free memory to the pool.
func (v *VMD) AddServer(name string, nic *simnet.NIC, capacityPages int64) *Server {
	if capacityPages <= 0 {
		panic("vmd: server with no capacity")
	}
	if len(v.servers) >= maxServers {
		panic("vmd: too many servers (max 64)")
	}
	s := &Server{vmd: v, idx: int16(len(v.servers)), name: name, nic: nic, capacity: capacityPages}
	v.servers = append(v.servers, s)
	s.registerMetrics(v.reg)
	// A server joining after clients exist (elastic pool growth) must be
	// reachable: give every existing client a link to it. The default
	// assembly order (servers first) never takes this path, keeping the
	// v1 flow set byte-identical.
	for _, c := range v.clients {
		c.addLink(s)
	}
	if v.store.Placement == PlaceHash {
		v.rebuildRing()
		v.scheduleRebalance()
	}
	return s
}

// ServerByName returns the named server, or nil.
func (v *VMD) ServerByName(name string) *Server {
	for _, s := range v.servers {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Servers returns the pool's servers in registration order.
func (v *VMD) Servers() []*Server { return v.servers }

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Used returns the number of pages currently stored.
func (s *Server) Used() int64 { return s.used }

// Capacity returns the server's contribution in pages.
func (s *Server) Capacity() int64 { return s.capacity }

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// Stats returns cumulative (stored, served, rejected) counters.
func (s *Server) Stats() (stored, served, rejected int64) {
	return s.pagesStored, s.pagesServed, s.rejects
}

// Crash takes the server down: everything it stored (memory and disk tier)
// is gone. Every namespace immediately promotes surviving replicas to
// primary, marks unreplicated pages lost (reads of them zero-fill), and
// queues background re-replication to restore the replication factor.
// In-flight requests addressed to the server are silently dropped; with
// EnableFaultTolerance armed the clients time out and retry elsewhere.
func (s *Server) Crash() {
	if s.down {
		return
	}
	s.down = true
	v := s.vmd
	v.tr.Emitter(trace.ScopeCluster, "").Emitf(v.eng.NowSeconds(), trace.ServerCrash, "%s crashed (%d mem + %d disk pages lost)", s.name, s.used, s.diskUsed)
	s.used = 0
	s.diskUsed = 0
	for _, ns := range v.namespaces {
		ns.serverLost(s)
	}
	v.pumpRepairs()
}

// Restart brings a crashed server back, empty. Pages that could not be
// re-replicated while it was down (no eligible target) get a fresh chance.
func (s *Server) Restart() {
	if !s.down {
		return
	}
	s.down = false
	v := s.vmd
	v.tr.Emitter(trace.ScopeCluster, "").Emitf(v.eng.NowSeconds(), trace.ServerRestart, "%s restarted (empty)", s.name)
	for _, ns := range v.namespaces {
		ns.requeueUnderReplicated()
	}
	v.pumpRepairs()
}

// serverLink is one client's connection to one server.
type serverLink struct {
	toServer   *simnet.Flow
	fromServer *simnet.Flow
	// freeHint is the capacity the server last gossiped; stale by up to one
	// gossip interval, which is why writes can still be NACKed.
	freeHint int64
}

// Client is the VMD client module on a source or destination host.
type Client struct {
	vmd     *VMD
	name    string
	nic     *simnet.NIC
	latency sim.Duration
	links   []*serverLink
	rr      int
	blindRR bool

	spillDev    *blockdev.Device
	spillStream *blockdev.Stream

	pagesWritten int64
	pagesRead    int64
	retries      int64

	// v2: local compressed tier opt-in (store.go) and read accounting by
	// origin so pagesRead reconciles with the namespace degradation
	// counters (every completed read increments exactly one origin).
	localTier  bool
	prefetched int64 // pages pulled ahead of demand by the readahead engine
	reads      [originCount]int64
}

// readOrigin classifies where a completed read was served from.
type readOrigin int

const (
	originRemote readOrigin = iota // a VMD server (memory or disk tier)
	originSpill                    // a client's local spill disk
	originStaged                   // the client's readahead staging cache
	originCtier                    // a client's compressed-RAM tier
	originZero                     // zero-fill of a lost page
	originCount
)

// countRead records one completed read and its origin. Every path that
// delivers a page to a reader must go through here so Stats' read count
// equals the sum of the per-origin counters.
func (c *Client) countRead(o readOrigin) {
	c.pagesRead++
	c.reads[o]++
}

// ReadsByOrigin breaks Stats' read counter down by where each page was
// served from: remote servers, local spill disk, the readahead staging
// cache, the compressed local tier, and zero-fill of lost pages. The five
// values always sum to the read count Stats reports.
func (c *Client) ReadsByOrigin() (remote, spill, staged, ctier, zero int64) {
	return c.reads[originRemote], c.reads[originSpill], c.reads[originStaged],
		c.reads[originCtier], c.reads[originZero]
}

// PrefetchedPages returns how many pages the readahead engine pulled into
// the staging cache on this client (whether or not they were later used).
func (c *Client) PrefetchedPages() int64 { return c.prefetched }

// SetLoadAware toggles the placement policy: load-aware round-robin (the
// paper's algorithm, default) skips servers that gossiped zero free
// memory; blind round-robin ignores the hints and relies on NACK-and-retry
// alone — the ablation baseline.
func (c *Client) SetLoadAware(on bool) { c.blindRR = !on }

// AttachSpill gives the client a local block device (normally the host's
// swap partition) to fall back on when the distributed pool is exhausted.
// The device's stream is created lazily on first spill, so attaching one
// changes nothing on runs that never spill.
func (c *Client) AttachSpill(dev *blockdev.Device) { c.spillDev = dev }

// spillIO returns the client's lazily created spill stream.
func (c *Client) spillIO() *blockdev.Stream {
	if c.spillStream == nil {
		c.spillStream = c.spillDev.NewStream("vmd-spill:" + c.name)
	}
	return c.spillStream
}

// addLink wires the client to one server: a flow in each direction plus
// the server's current free capacity as the initial gossip hint.
func (c *Client) addLink(s *Server) {
	v := c.vmd
	link := &serverLink{
		toServer:   v.net.NewFlow(fmt.Sprintf("vmd:%s->%s", c.name, s.name), c.nic, s.nic, c.latency),
		fromServer: v.net.NewFlow(fmt.Sprintf("vmd:%s<-%s", c.name, s.name), s.nic, c.nic, c.latency),
		freeHint:   s.freePages(),
	}
	c.links = append(c.links, link)
}

// NewClient creates a client on the given host NIC, with flows to and from
// every server, and starts the capacity gossip.
func (v *VMD) NewClient(name string, nic *simnet.NIC, latency sim.Duration) *Client {
	c := &Client{vmd: v, name: name, nic: nic, latency: latency}
	v.clients = append(v.clients, c)
	c.registerMetrics(v.reg)
	for _, s := range v.servers {
		c.addLink(s)
	}
	// Capacity gossip: each server periodically tells each client how much
	// memory it has left. The update itself costs network bytes. Crashed
	// servers stay silent; their last hint goes stale, which is harmless
	// because placement skips down servers outright.
	v.eng.Every(v.eng.SecondsToTicks(gossipInterval), func(sim.Time) bool {
		for i, s := range v.vmdServers() {
			if s.down {
				continue
			}
			i := i
			free := s.freePages()
			c.links[i].fromServer.SendMessage(GossipBytes, func() {
				c.links[i].freeHint = free
			})
		}
		return true
	})
	return c
}

func (v *VMD) vmdServers() []*Server { return v.servers }

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Stats returns cumulative (written, read, retried) page counters. The
// read count includes every completed read regardless of origin — remote
// servers, local spill disk, staging cache, compressed tier, zero-fill —
// and always equals the sum of ReadsByOrigin.
func (c *Client) Stats() (written, read, retried int64) {
	return c.pagesWritten, c.pagesRead, c.retries
}

// Clients returns the pool's clients in creation order.
func (v *VMD) Clients() []*Client { return v.clients }

// Namespaces returns the pool's namespaces in creation order.
func (v *VMD) Namespaces() []*Namespace { return v.namespaces }

// interFlow returns (creating on first use) the server-to-server flow used
// by background re-replication.
func (v *VMD) interFlow(a, b *Server) *simnet.Flow {
	if v.srvFlows == nil {
		v.srvFlows = make(map[uint32]*simnet.Flow)
	}
	key := uint32(uint16(a.idx))<<16 | uint32(uint16(b.idx))
	f := v.srvFlows[key]
	if f == nil {
		f = v.net.NewFlow("vmd:"+a.name+"->"+b.name, a.nic, b.nic, 0)
		v.srvFlows[key] = f
	}
	return f
}

// peerFlow returns (creating on first use) the client-to-client flow that
// carries a spilled page from the host holding it to the host reading it.
func (v *VMD) peerFlow(from, to *Client) *simnet.Flow {
	if v.peerFlows == nil {
		v.peerFlows = make(map[peerKey]*simnet.Flow)
	}
	key := peerKey{from, to}
	f := v.peerFlows[key]
	if f == nil {
		f = v.net.NewFlow("vmd:spill:"+from.name+"->"+to.name, from.nic, to.nic, to.latency)
		v.peerFlows[key] = f
	}
	return f
}

// replCopy is one extra copy of a page (beyond the primary recorded in the
// placement table).
type replCopy struct {
	srv    int16
	onDisk bool
}

// Namespace is one VM's logical partition of the VMD: its per-VM swap
// device. The placement table (which server holds which offset) is cluster
// metadata and travels with the namespace across attach/detach, which is
// what makes the swap device portable between source and destination.
type Namespace struct {
	vmd       *VMD
	name      string
	k         int     // replication factor
	placement []int16 // offset -> primary server index, noServer if never written
	onDisk    *mem.Bitmap
	replicas  [][]replCopy       // extra copies; nil when k==1
	spilled   map[uint32]*Client // offsets spilled to a client's local disk
	lost      *mem.Bitmap        // offsets whose every copy died with a server
	clients   map[*Client]bool
	stored    int64
	destroyed bool
	em        *trace.Emitter
	sp        *trace.SpanEmitter
	readHist  *metrics.Histogram // demand-read latency; nil when metrics are off

	spilledPages  int64 // cumulative spills
	lostPages     int64 // cumulative pages lost to crashes
	lostReads     int64 // reads served as zero-fill
	failoverReads int64 // reads retried onto another copy
	rereplicated  int64 // copies restored by background repair

	// v2 store state (store.go, prefetch.go, ring.go). All nil/zero when
	// the corresponding feature is off.
	hashKey      uint64        // per-namespace page-key seed for hash placement
	heat         []uint32      // offset -> tier epoch of last access
	demoteCursor int           // cold-scan position
	ct           []*ctierState // per-client compressed tiers, creation order
	pref         []*prefetcher // per-client readahead state, creation order
	latSink      func(seconds float64)

	demotions  int64 // pages moved memory -> server disk by the cold scan
	promotions int64 // pages moved server disk -> memory on access
	rebalanced int64 // pages moved to their ring-preferred server
}

// CreateNamespace carves a namespace of the given size (in pages) out of
// the pool. Size is the VM's memory size: offset o holds the VM's page o.
// The namespace inherits the pool's current replication factor.
func (v *VMD) CreateNamespace(name string, pages int) *Namespace {
	if pages <= 0 {
		panic("vmd: empty namespace")
	}
	p := make([]int16, pages)
	for i := range p {
		p[i] = noServer
	}
	ns := &Namespace{
		vmd: v, name: name, k: v.replicas, placement: p, onDisk: mem.NewBitmap(pages),
		clients: make(map[*Client]bool),
		em:      v.tr.Emitter(trace.ScopeDevice, "vmd:"+name),
		sp:      v.tr.SpanEmitter(trace.ScopeDevice, "vmd:"+name),
		hashKey: sim.SeedForName(ringRoot, "ns:"+name),
	}
	if ns.k > 1 {
		ns.replicas = make([][]replCopy, pages)
	}
	if v.store.Tiers.Enabled {
		ns.heat = make([]uint32, pages)
	}
	v.namespaces = append(v.namespaces, ns)
	ns.registerMetrics(v.reg)
	return ns
}

// Name returns the namespace name.
func (ns *Namespace) Name() string { return ns.name }

// Pages returns the namespace size in pages.
func (ns *Namespace) Pages() int { return len(ns.placement) }

// Stored returns how many distinct offsets currently hold a page (spilled
// and lost offsets included: the client still believes they are written).
func (ns *Namespace) Stored() int64 { return ns.stored }

// ReplicationFactor returns the namespace's K.
func (ns *Namespace) ReplicationFactor() int { return ns.k }

// SpilledPages returns the cumulative count of pages spilled to client
// disks because the pool was exhausted.
func (ns *Namespace) SpilledPages() int64 { return ns.spilledPages }

// LostPages returns how many pages are currently unrecoverable: every
// copy died with a crashed server and nothing has resurrected the offset
// since (an overwrite, a fault-in freeing the slot, or a late replica
// arrival all take a page off this gauge; LostReads counts the damage
// actually observed).
func (ns *Namespace) LostPages() int64 { return ns.lostPages }

// LostReads returns how many reads were served as zero-fill because the
// page was lost.
func (ns *Namespace) LostReads() int64 { return ns.lostReads }

// FailoverReads returns how many reads were retried onto another copy
// after a timeout.
func (ns *Namespace) FailoverReads() int64 { return ns.failoverReads }

// Rereplicated returns how many copies background repair has restored.
func (ns *Namespace) Rereplicated() int64 { return ns.rereplicated }

// CopiesOf returns how many live copies the offset currently has (a
// spilled page counts as one, a lost page as zero).
func (ns *Namespace) CopiesOf(off uint32) int {
	if int(off) >= len(ns.placement) {
		return 0
	}
	if ns.placement[off] != noServer {
		n := 1
		if ns.replicas != nil {
			n += len(ns.replicas[off])
		}
		return n
	}
	if ns.spilled != nil && ns.spilled[off] != nil {
		return 1
	}
	if ns.ctHolder(off) != nil {
		return 1
	}
	return 0
}

// AttachedTo reports whether the namespace is attached to the client.
func (ns *Namespace) AttachedTo(c *Client) bool { return ns.clients[c] }

// AttachCount returns the number of hosts the namespace is attached to.
func (ns *Namespace) AttachCount() int { return len(ns.clients) }

// AttachTo connects the namespace to a client (exporting it as a block
// device on that host). During an Agile migration's push phase the
// namespace is briefly attached at both source and destination — the paper
// disconnects the source "once the migration of in-memory VM state
// completes", which is after the destination has already started reading
// cold pages.
func (ns *Namespace) AttachTo(c *Client) { ns.clients[c] = true }

// Detach disconnects the namespace from one host. Stored pages remain on
// the servers — this is the step the paper performs at the source once the
// in-memory state has migrated.
func (ns *Namespace) Detach(c *Client) { delete(ns.clients, c) }

// Destroy releases all server memory held by the namespace and detaches it
// everywhere.
func (ns *Namespace) Destroy() {
	for off, sIdx := range ns.placement {
		if sIdx != noServer {
			ns.releaseSlot(uint32(off), ns.vmd.servers[sIdx])
			ns.placement[off] = noServer
		}
		if ns.replicas != nil {
			for _, cp := range ns.replicas[off] {
				ns.releaseCopy(cp)
			}
			ns.replicas[off] = nil
		}
	}
	ns.spilled = nil
	ns.lost = nil
	ns.stored = 0
	ns.destroyed = true
	ns.clients = make(map[*Client]bool)
	for _, st := range ns.ct {
		st.clear()
	}
	for _, pf := range ns.pref {
		pf.clear()
	}
}

// copiesAt returns the offset's extra copies (nil when unreplicated).
func (ns *Namespace) copiesAt(off uint32) []replCopy {
	if ns.replicas == nil {
		return nil
	}
	return ns.replicas[off]
}

// holdsCopy reports whether the offset already has a copy (primary or
// replica) on the server.
func (ns *Namespace) holdsCopy(off uint32, srv int16) bool {
	if ns.placement[off] == srv {
		return true
	}
	for _, cp := range ns.copiesAt(off) {
		if cp.srv == srv {
			return true
		}
	}
	return false
}

// removeCopy drops the offset's replica on the server, reporting whether
// one was present. It does not touch server accounting.
func (ns *Namespace) removeCopy(off uint32, srv int16) bool {
	if ns.replicas == nil {
		return false
	}
	cps := ns.replicas[off]
	for i, cp := range cps {
		if cp.srv == srv {
			ns.replicas[off] = append(cps[:i], cps[i+1:]...)
			return true
		}
	}
	return false
}

// releaseCopy returns a replica's storage to its server's correct tier.
func (ns *Namespace) releaseCopy(cp replCopy) {
	s := ns.vmd.servers[cp.srv]
	if s.down {
		return
	}
	if cp.onDisk {
		s.diskUsed--
	} else {
		s.used--
	}
}

// serverLost rewires the namespace after s crashed: primaries on s are
// promoted to a surviving replica or marked lost, replicas on s are
// dropped, and every page that lost a copy is queued for re-replication.
func (ns *Namespace) serverLost(s *Server) {
	if ns.destroyed {
		return
	}
	idx := s.idx
	var promoted, lostN int
	for off := range ns.placement {
		o := uint32(off)
		if ns.placement[off] == idx {
			ns.onDisk.Clear(mem.PageID(off))
			if cps := ns.copiesAt(o); len(cps) > 0 {
				cp := cps[0]
				ns.placement[off] = cp.srv
				if cp.onDisk {
					ns.onDisk.Set(mem.PageID(off))
				}
				ns.removeCopy(o, cp.srv)
				ns.vmd.queueRepair(ns, o)
				promoted++
			} else {
				ns.placement[off] = noServer
				if ns.lost == nil {
					ns.lost = mem.NewBitmap(len(ns.placement))
				}
				ns.lost.Set(mem.PageID(off))
				lostN++
			}
		} else if ns.removeCopy(o, idx) {
			if ns.placement[off] != noServer {
				ns.vmd.queueRepair(ns, o)
			}
		}
	}
	ns.lostPages += int64(lostN)
	now := ns.vmd.eng.NowSeconds()
	if promoted > 0 {
		ns.em.Emitf(now, trace.VMDFailover, "%s crashed: %d pages promoted to replicas", s.name, promoted)
	}
	if lostN > 0 {
		ns.em.Emitf(now, trace.VMDLost, "%s crashed: %d pages lost (no replica)", s.name, lostN)
	}
}

// requeueUnderReplicated re-queues every page below the replication factor
// (called when a restarted server makes new repair targets available).
func (ns *Namespace) requeueUnderReplicated() {
	if ns.k <= 1 || ns.destroyed {
		return
	}
	for off := range ns.placement {
		if ns.placement[off] != noServer && 1+len(ns.replicas[off]) < ns.k {
			ns.vmd.queueRepair(ns, uint32(off))
		}
	}
}

// queueRepair schedules a background re-replication of the offset.
func (v *VMD) queueRepair(ns *Namespace, off uint32) {
	v.repairQ = append(v.repairQ, repairItem{ns, off})
}

// pumpRepairs starts queued repairs up to the concurrency window. Each
// repair re-validates at start and again at arrival: the page may have
// been freed, re-replicated or lost again in the meantime. With batching
// configured (StoreConfig.BatchPages > 1), adjacent queue entries for
// contiguous offsets on the same source server coalesce into one transfer.
func (v *VMD) pumpRepairs() {
	for v.repairBusy < repairWindow && len(v.repairQ) > 0 {
		it := v.repairQ[0]
		v.repairQ = v.repairQ[1:]
		run := []repairItem{it}
		for v.store.BatchPages > 1 && len(v.repairQ) > 0 && len(run) < v.store.BatchPages {
			nxt := v.repairQ[0]
			last := run[len(run)-1]
			if nxt.ns != it.ns || nxt.off != last.off+1 ||
				it.ns.placement[nxt.off] != it.ns.placement[it.off] ||
				it.ns.onDisk.Test(mem.PageID(nxt.off)) != it.ns.onDisk.Test(mem.PageID(it.off)) {
				break
			}
			run = append(run, nxt)
			v.repairQ = v.repairQ[1:]
		}
		if len(run) == 1 {
			if v.startRepair(it) {
				v.repairBusy++
			}
			continue
		}
		if v.startRepairRun(run) {
			v.repairBusy++
		}
	}
}

// startRepairRun begins one coalesced re-replication transfer of a run of
// contiguous offsets sharing a source server, reporting whether any page
// in the run still needed repair and a target existed. The run travels as
// one message; each page lands (and re-validates) individually.
func (v *VMD) startRepairRun(run []repairItem) bool {
	ns := run[0].ns
	valid := run[:0]
	for _, it := range run {
		if ns.destroyed || ns.placement[it.off] == noServer {
			continue
		}
		if 1+len(ns.copiesAt(it.off)) >= ns.k {
			continue
		}
		if v.servers[ns.placement[it.off]].down {
			continue
		}
		valid = append(valid, it)
	}
	if len(valid) == 0 {
		return false
	}
	src := v.servers[ns.placement[valid[0].off]]
	n := len(v.servers)
	var dst *Server
	for i := 0; i < n; i++ {
		cand := v.servers[(v.repairRR+i)%n]
		if cand.down || cand == src || cand.freePages() <= 0 {
			continue
		}
		held := false
		for _, it := range valid {
			if ns.holdsCopy(it.off, cand.idx) {
				held = true
				break
			}
		}
		if held {
			continue
		}
		dst = cand
		v.repairRR = int(cand.idx) + 1
		break
	}
	if dst == nil {
		return false
	}
	src.pagesServed += int64(len(valid))
	send := func() {
		v.interFlow(src, dst).SendMessage(BatchMsgBytes(len(valid)), func() {
			diskN := 0
			for _, it := range valid {
				if landed, onDisk := v.landRepair(it.ns, it.off, src, dst); landed && onDisk {
					diskN++
				}
			}
			next := func() {
				v.repairBusy--
				v.pumpRepairs()
			}
			if diskN > 0 {
				dst.disk.Write(mem.PagesToBytes(diskN), next)
			} else {
				next()
			}
		})
	}
	if ns.onDisk.Test(mem.PageID(valid[0].off)) {
		src.diskServes += int64(len(valid))
		src.disk.Read(mem.PagesToBytes(len(valid)), send)
	} else {
		send()
	}
	return true
}

// startRepair begins one re-replication transfer, reporting whether it was
// still needed and a target existed.
func (v *VMD) startRepair(it repairItem) bool {
	ns := it.ns
	off := it.off
	if ns.destroyed || ns.placement[off] == noServer {
		return false
	}
	if 1+len(ns.copiesAt(off)) >= ns.k {
		return false
	}
	src := v.servers[ns.placement[off]]
	if src.down {
		return false
	}
	n := len(v.servers)
	var dst *Server
	for i := 0; i < n; i++ {
		cand := v.servers[(v.repairRR+i)%n]
		if cand.down || cand == src || cand.freePages() <= 0 || ns.holdsCopy(off, cand.idx) {
			continue
		}
		dst = cand
		v.repairRR = int(cand.idx) + 1
		break
	}
	if dst == nil {
		// No eligible target right now; a later Restart re-queues.
		return false
	}
	src.pagesServed++
	send := func() {
		v.interFlow(src, dst).SendMessage(PageMsgBytes, func() {
			v.finishRepair(ns, off, src, dst)
		})
	}
	if ns.onDisk.Test(mem.PageID(off)) {
		src.diskServes++
		src.disk.Read(mem.PageSize, send)
	} else {
		send()
	}
	return true
}

// finishRepair lands a re-replication transfer at its target.
func (v *VMD) finishRepair(ns *Namespace, off uint32, src, dst *Server) {
	next := func() {
		v.repairBusy--
		v.pumpRepairs()
	}
	landed, onDisk := v.landRepair(ns, off, src, dst)
	if landed && onDisk {
		dst.disk.Write(mem.PageSize, next)
	} else {
		next()
	}
}

// landRepair re-validates and lands one re-replicated page at its target,
// reporting whether a copy was added and on which tier. Disk-tier landings
// are accounted immediately; the caller schedules the device write.
func (v *VMD) landRepair(ns *Namespace, off uint32, src, dst *Server) (landed, onDisk bool) {
	if dst.down || ns.destroyed || ns.placement[off] == noServer ||
		1+len(ns.copiesAt(off)) >= ns.k || ns.holdsCopy(off, dst.idx) {
		return false, false
	}
	if dst.used < dst.capacity {
		dst.used++
	} else if dst.disk != nil && dst.diskUsed < dst.diskCap {
		dst.diskUsed++
		dst.diskStores++
		onDisk = true
	} else {
		return false, false
	}
	dst.pagesStored++
	ns.replicas[off] = append(ns.replicas[off], replCopy{srv: dst.idx, onDisk: onDisk})
	ns.rereplicated++
	if ns.em.Enabled() {
		ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRepair, "offset %d re-replicated %s -> %s", off, src.name, dst.name)
	}
	return true, onDisk
}

// sendState tracks one in-flight request so a timeout and a late response
// cannot both act on it.
type sendState struct {
	settled    bool
	storedSrv  *Server // set once the server stored the page (awaiting ack)
	storedDisk bool
	// What the store cleared from an `already` (spilled/lost) offset, kept
	// so a timeout can put it back when it reverts the placement.
	wasLost  bool
	wasSpill *Client
}

// writeOp is one logical page write: the primary copy plus K-1 replicas,
// sharing a NACK/timeout exclusion set so a redirect never returns to a
// server this op already knows is full, down or holding a copy.
type writeOp struct {
	ns       *Namespace
	c        *Client
	off      uint32
	fn       func()
	attempts int    // primary redirect budget (NACKs + timeouts)
	nacked   uint64 // servers that NACKed or timed out this op
	placed   uint64 // servers holding a copy of this op's page
	pending  int    // copies not yet settled
	already  bool   // offset was spilled/lost: ns.stored already counts it
	counted  bool   // this op incremented ns.stored
}

// Write stores a page at the given offset through the given client (which
// must be attached). fn runs when every copy has been stored and acked.
// Overwrites go to the servers already holding the offset; new offsets go
// to the next K servers in round-robin order whose gossiped capacity is
// nonzero, falling back through NACK-and-retry when the hint was stale.
// When the whole pool is full the page spills to the client's local disk.
func (ns *Namespace) Write(c *Client, off uint32, fn func()) {
	if !ns.clients[c] {
		panic("vmd: write through unattached client " + c.name + " on namespace " + ns.name)
	}
	if int(off) >= len(ns.placement) {
		panic("vmd: write past end of namespace")
	}
	ns.invalidateStaging(off)
	if ns.placement[off] != noServer {
		ns.overwrite(c, off, fn)
		return
	}
	if st := ns.ctHolder(off); st != nil {
		ns.ctierRewrite(st, off, fn)
		return
	}
	if !ns.hasDegraded(off) {
		if st := ns.ctFor(c); st != nil {
			ns.ctierStore(st, off, fn)
			return
		}
	}
	ns.writeRemote(c, off, false, fn)
}

// hasDegraded reports whether the offset is in one of the degraded states
// (spilled to a client disk, or lost to a crash) that ns.stored already
// counts.
func (ns *Namespace) hasDegraded(off uint32) bool {
	if ns.spilled != nil && ns.spilled[off] != nil {
		return true
	}
	return ns.lost != nil && ns.lost.Test(mem.PageID(off))
}

// writeRemote places a fresh offset on the remote pool through the v1
// write machinery, bypassing the client-local compressed tier. Callers
// that already count the offset in ns.stored (the compressed tier's
// writeback) pass alreadyStored.
func (ns *Namespace) writeRemote(c *Client, off uint32, alreadyStored bool, fn func()) {
	already := alreadyStored || ns.hasDegraded(off)
	op := &writeOp{
		ns: ns, c: c, off: off, fn: fn,
		attempts: 2*len(c.links) + 2,
		pending:  ns.k,
		already:  already,
	}
	op.sendCopy(true)
	for j := 1; j < ns.k; j++ {
		op.sendCopy(false)
	}
}

// overwrite rewrites a stored page in place on every server holding it.
func (ns *Namespace) overwrite(c *Client, off uint32, fn func()) {
	sIdx := ns.placement[off]
	copies := ns.copiesAt(off)
	if len(copies) == 0 {
		ns.sendOverwrite(c, ns.vmd.servers[sIdx], off, ns.onDisk.Test(mem.PageID(off)), fn)
		return
	}
	remaining := 1 + len(copies)
	each := func() {
		remaining--
		if remaining == 0 && fn != nil {
			fn()
		}
	}
	ns.sendOverwrite(c, ns.vmd.servers[sIdx], off, ns.onDisk.Test(mem.PageID(off)), each)
	for _, cp := range copies {
		ns.sendOverwrite(c, ns.vmd.servers[cp.srv], off, cp.onDisk, each)
	}
}

// sendOverwrite rewrites one existing copy. Overwrites never NACK (the
// slot is already allocated); a timeout re-dispatches the whole write,
// which re-resolves placement in case a crash moved the page meanwhile.
func (ns *Namespace) sendOverwrite(c *Client, s *Server, off uint32, onDisk bool, fn func()) {
	v := ns.vmd
	link := c.links[s.idx]
	st := &sendState{}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, func() {
			if st.settled {
				return
			}
			st.settled = true
			c.retries++
			ns.Write(c, off, fn)
		})
	}
	link.toServer.SendMessage(PageMsgBytes, func() {
		if st.settled || s.down {
			return
		}
		ack := func() {
			s.pagesStored++
			link.fromServer.SendMessage(AckBytes, func() {
				if st.settled {
					return
				}
				st.settled = true
				c.pagesWritten++
				if fn != nil {
					fn()
				}
			})
		}
		if onDisk {
			// Overwrite of a spilled page stays on disk.
			s.diskStores++
			s.disk.Write(mem.PageSize, ack)
			return
		}
		ack()
	})
}

// sendCopy places one copy of the op's page: the primary drives the
// attempts budget and degrades to a spill when the pool is exhausted;
// replicas are best-effort and settle silently when no distinct server
// can take them.
func (op *writeOp) sendCopy(primary bool) {
	if primary && op.attempts <= 0 {
		op.spillPrimary()
		return
	}
	s := op.c.placeServer(op.ns, op.off, op.nacked|op.placed)
	if s == nil {
		if primary {
			op.spillPrimary()
		} else {
			op.settle()
		}
		return
	}
	if !primary {
		// pickServer ignores the mask when it has a single candidate; a
		// replica must land on a distinct, untried server or not at all.
		bit := uint64(1) << uint(s.idx)
		if (op.nacked|op.placed)&bit != 0 {
			op.settle()
			return
		}
	}
	op.send(s, primary)
}

// settle marks one copy finished; the write completes when all have.
func (op *writeOp) settle() {
	op.pending--
	if op.pending == 0 && op.fn != nil {
		op.fn()
	}
}

// send transmits one copy to the chosen server and handles ack, NACK and
// (with fault tolerance armed) timeout.
func (op *writeOp) send(s *Server, primary bool) {
	ns := op.ns
	c := op.c
	v := ns.vmd
	off := op.off
	link := c.links[s.idx]
	charged := false
	if link.freeHint > 0 {
		// Optimistic local accounting: the next gossip refreshes the true
		// value, but in-flight writes already consume the budget.
		charged = true
		link.freeHint--
	}
	st := &sendState{}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, func() {
			op.timeout(s, st, link, primary, charged)
		})
	}
	link.toServer.SendMessage(PageMsgBytes, func() {
		// Page arrived at the server.
		if st.settled || s.down {
			return
		}
		if s.freePages() <= 0 {
			// NACK: server is actually full. The client retries on the
			// next server in rotation.
			s.rejects++
			link.freeHint = 0
			if ns.em.Enabled() {
				ns.em.Emitf(v.eng.NowSeconds(), trace.VMDNack, "%s full, %s retrying offset %d", s.name, c.name, off)
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
				}
				op.sendCopy(primary)
			})
			return
		}
		finish := func() {
			s.pagesStored++
			link.fromServer.SendMessage(AckBytes, func() {
				if st.settled {
					return
				}
				st.settled = true
				c.pagesWritten++
				op.settle()
			})
		}
		op.placed |= uint64(1) << uint(s.idx)
		if primary {
			ns.placement[off] = s.idx
			ns.touch(off)
			if op.already {
				if ns.lost != nil && ns.lost.Test(mem.PageID(off)) {
					ns.lost.Clear(mem.PageID(off))
					ns.lostPages--
					st.wasLost = true
				}
				if ns.spilled != nil && ns.spilled[off] != nil {
					st.wasSpill = ns.spilled[off]
					delete(ns.spilled, off)
				}
			} else if !op.counted {
				ns.stored++
				op.counted = true
			}
		}
		// A replica that was on the wire when the primary's server crashed
		// arrives after the page was written off as lost: its store
		// resurrects the page, with this server as the new primary.
		promote := !primary && ns.lost != nil && ns.placement[off] == noServer &&
			ns.lost.Test(mem.PageID(off))
		if promote {
			ns.lost.Clear(mem.PageID(off))
			ns.lostPages--
			ns.placement[off] = s.idx
		}
		if s.used < s.capacity {
			s.used++
			st.storedSrv = s
			if !primary && !promote {
				ns.replicas[off] = append(ns.replicas[off], replCopy{srv: s.idx})
			}
			finish()
		} else {
			// Memory full: spill to the server's disk tier. The ack
			// departs after the local write completes.
			s.diskUsed++
			s.diskStores++
			st.storedSrv, st.storedDisk = s, true
			if primary || promote {
				ns.onDisk.Set(mem.PageID(off))
			} else {
				ns.replicas[off] = append(ns.replicas[off], replCopy{srv: s.idx, onDisk: true})
			}
			s.disk.Write(mem.PageSize, finish)
		}
	})
}

// timeout abandons an unanswered copy and redirects it. If the store had
// landed but the ack was lost or stalled, the server-side lease expires
// and the slot is reclaimed so accounting stays exact.
func (op *writeOp) timeout(s *Server, st *sendState, link *serverLink, primary, charged bool) {
	if st.settled {
		return
	}
	st.settled = true
	ns := op.ns
	off := op.off
	if st.storedSrv != nil {
		if !st.storedSrv.down {
			if st.storedDisk {
				st.storedSrv.diskUsed--
			} else {
				st.storedSrv.used--
			}
		}
		if primary {
			if ns.placement[off] == s.idx {
				ns.placement[off] = noServer
				if st.storedDisk {
					ns.onDisk.Clear(mem.PageID(off))
				}
				// The store consumed the offset's spilled/lost state; the
				// redirect needs it back or a read in the gap finds nothing.
				if st.wasLost && ns.lost != nil {
					ns.lost.Set(mem.PageID(off))
					ns.lostPages++
				}
				if st.wasSpill != nil {
					ns.spilled[off] = st.wasSpill
				}
			}
		} else if ns.placement[off] == s.idx {
			// This replica store resurrected a lost page and became its
			// primary; abandoning it puts the page back on the lost gauge.
			ns.placement[off] = noServer
			if st.storedDisk {
				ns.onDisk.Clear(mem.PageID(off))
			}
			if ns.lost != nil {
				ns.lost.Set(mem.PageID(off))
				ns.lostPages++
			}
		} else {
			ns.removeCopy(off, s.idx)
		}
		op.placed &^= uint64(1) << uint(s.idx)
	} else if charged {
		// The write never landed: hand its optimistic hint charge back so
		// the server is not under-counted until the next gossip.
		link.freeHint++
	}
	op.nacked |= uint64(1) << uint(s.idx)
	op.c.retries++
	if primary {
		op.attempts--
	}
	op.sendCopy(primary)
}

// spillPrimary degrades a write the pool cannot take onto the writing
// client's local swap disk.
func (op *writeOp) spillPrimary() {
	ns := op.ns
	c := op.c
	if c.spillDev == nil {
		panic(fmt.Sprintf("vmd: pool exhausted writing %s offset %d and no spill device attached to %s", ns.name, op.off, c.name))
	}
	if ns.spilled == nil {
		ns.spilled = make(map[uint32]*Client)
	}
	ns.spilled[op.off] = c
	if op.already {
		if ns.lost != nil && ns.lost.Test(mem.PageID(op.off)) {
			ns.lost.Clear(mem.PageID(op.off))
			ns.lostPages--
		}
	} else if !op.counted {
		ns.stored++
		op.counted = true
	}
	ns.spilledPages++
	ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDSpill, "offset %d spilled to %s local disk (pool exhausted)", op.off, c.name)
	c.spillIO().Write(mem.PageSize, func() {
		op.settle()
	})
}

// pickServer implements load-aware round robin over the gossiped hints.
// mask carries the servers this write already knows to avoid — NACKers,
// timeouts, and servers holding another copy — which are skipped while any
// alternative exists. Down servers are always skipped. Returns nil when
// every server is excluded (the caller spills or gives up); a client with
// a single server ignores the mask, retrying it until the attempts budget
// runs out, exactly as before.
func (c *Client) pickServer(mask uint64) *Server {
	n := len(c.links)
	if n == 0 {
		panic("vmd: client has no servers")
	}
	skip := func(idx int) bool {
		if c.vmd.servers[idx].down {
			return true
		}
		return n > 1 && mask&(uint64(1)<<uint(idx)) != 0
	}
	if c.blindRR {
		for i := 0; i < n; i++ {
			idx := c.rr % n
			c.rr = idx + 1
			if skip(idx) {
				continue
			}
			return c.vmd.servers[idx]
		}
		return nil
	}
	for i := 0; i < n; i++ {
		idx := (c.rr + i) % n
		if skip(idx) {
			continue
		}
		if c.links[idx].freeHint > 0 {
			c.rr = idx + 1
			return c.vmd.servers[idx]
		}
	}
	// Every eligible hint says full; rotate anyway and let the server NACK
	// (hints may be stale in the optimistic direction too).
	for i := 0; i < n; i++ {
		idx := (c.rr + i) % n
		if skip(idx) {
			continue
		}
		c.rr = idx + 1
		return c.vmd.servers[idx]
	}
	return nil
}

// Read fetches the page at the given offset through the given client
// (which must be attached); fn runs when the page body has been delivered.
// It is a one-page ReadBatch. A lost page (every copy died with a crashed
// server) is served as zero-fill; a spilled page is read from the holding
// client's local disk, crossing the network when another host reads it.
// Reading an offset that was never written panics: it means a migration
// engine believed a page was on swap when it was not.
func (ns *Namespace) Read(c *Client, off uint32, fn func()) {
	ns.ReadBatch(c, []uint32{off}, fn)
}

// SetReadLatencySink installs a callback observing the latency (in
// simulated seconds) of every subsequent Read/ReadBatch page completion on
// this namespace, whatever tier served it. Pass nil to detach. Experiments
// use it to build demand-read latency histograms.
func (ns *Namespace) SetReadLatencySink(fn func(seconds float64)) { ns.latSink = fn }

// wrapLatency stamps a read's issue time and reports its completion
// latency to the sink and the registered histogram; a no-op (returning fn
// unchanged) when neither consumer is attached, so unobserved runs
// allocate nothing here.
func (ns *Namespace) wrapLatency(fn func()) func() {
	if ns.latSink == nil && ns.readHist == nil {
		return fn
	}
	eng := ns.vmd.eng
	start := eng.Now()
	return func() {
		lat := sim.Seconds(eng.Now()-start, eng.TickLen())
		ns.readHist.Observe(lat)
		if ns.latSink != nil {
			ns.latSink(lat)
		}
		if fn != nil {
			fn()
		}
	}
}

// wrapReadSpan opens a demand-read span covering the whole read (whatever
// tier ends up serving it) and closes it when the completion fires. Returns
// fn unchanged when spans are off, so untraced reads allocate nothing here.
func (ns *Namespace) wrapReadSpan(fn func(), off uint32, pages int) func() {
	if !ns.sp.Enabled() {
		return fn
	}
	name := "vmd-read"
	if pages > 1 {
		name = "vmd-read-batch"
	}
	rsp := ns.sp.Begin(ns.vmd.eng.NowSeconds(), name, 0,
		trace.Num("offset", float64(off)),
		trace.Num("pages", float64(pages)))
	return func() {
		ns.sp.End(ns.vmd.eng.NowSeconds(), rsp)
		if fn != nil {
			fn()
		}
	}
}

// serveStaged completes a read from the client's readahead staging cache:
// the page is already local, so the only cost is one event-loop hop.
func (ns *Namespace) serveStaged(pf *prefetcher, c *Client, off uint32, fn func()) {
	if ns.em.Enabled() {
		ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDPrefetchHit, "offset %d served from staging on %s", off, c.name)
	}
	pf.noteHit(off)
	ns.vmd.eng.After(1, func() {
		c.countRead(originStaged)
		if fn != nil {
			fn()
		}
	})
}

// readCopy resolves the offset's current primary and issues the read, with
// timeout-driven failover onto the next copy when fault tolerance is armed
// (each retry re-resolves, so a crash promotion mid-flight is picked up).
func (ns *Namespace) readCopy(c *Client, off uint32, fn func()) {
	v := ns.vmd
	sIdx := ns.placement[off]
	if sIdx == noServer {
		if holder := ns.spillHolder(off); holder != nil {
			ns.readSpilled(c, holder, off, fn)
			return
		}
		if ns.lost != nil && ns.lost.Test(mem.PageID(off)) {
			ns.readLost(c, off, fn)
			return
		}
		panic(fmt.Sprintf("vmd: read of unwritten offset %d in %s", off, ns.name))
	}
	ns.touch(off)
	s := v.servers[sIdx]
	if ns.em.Enabled() {
		ns.em.Emitf(v.eng.NowSeconds(), trace.VMDRead, "offset %d from %s via %s", off, s.name, c.name)
	}
	link := c.links[s.idx]
	st := &sendState{}
	if v.ft {
		v.eng.AfterSeconds(v.ftTimeout, func() {
			if st.settled {
				return
			}
			st.settled = true
			ns.failoverReads++
			if ns.em.Enabled() {
				ns.em.Emitf(v.eng.NowSeconds(), trace.VMDFailover, "read of offset %d from %s timed out, retrying", off, s.name)
			}
			ns.readCopy(c, off, fn)
		})
	}
	link.toServer.SendMessage(RequestBytes, func() {
		if st.settled || s.down {
			return
		}
		respond := func() {
			s.pagesServed++
			link.fromServer.SendMessage(PageMsgBytes, func() {
				if st.settled {
					return
				}
				st.settled = true
				c.countRead(originRemote)
				if fn != nil {
					fn()
				}
			})
		}
		if ns.onDisk.Test(mem.PageID(off)) {
			// Spilled page: the server reads its local disk first.
			s.diskServes++
			s.disk.Read(mem.PageSize, func() {
				ns.maybePromote(s, off)
				respond()
			})
			return
		}
		respond()
	})
}

// spillHolder returns the client holding the offset's spilled copy, or nil.
func (ns *Namespace) spillHolder(off uint32) *Client {
	if ns.spilled == nil {
		return nil
	}
	return ns.spilled[off]
}

// readSpilled serves a read from the client disk holding a spilled page.
func (ns *Namespace) readSpilled(c, holder *Client, off uint32, fn func()) {
	if ns.em.Enabled() {
		ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDRead, "offset %d from spill on %s via %s", off, holder.name, c.name)
	}
	if holder == c {
		c.spillIO().Read(mem.PageSize, func() {
			c.countRead(originSpill)
			if fn != nil {
				fn()
			}
		})
		return
	}
	holder.spillIO().Read(mem.PageSize, func() {
		ns.vmd.peerFlow(holder, c).SendMessage(PageMsgBytes, func() {
			c.countRead(originSpill)
			if fn != nil {
				fn()
			}
		})
	})
}

// readLost serves a read of an unrecoverable page as zero-fill: the VM
// takes corrupted-but-bounded damage instead of the simulator halting.
func (ns *Namespace) readLost(c *Client, off uint32, fn func()) {
	ns.lostReads++
	ns.em.Emitf(ns.vmd.eng.NowSeconds(), trace.VMDLost, "offset %d unrecoverable, served as zero-fill", off)
	ns.vmd.eng.After(1, func() {
		c.countRead(originZero)
		if fn != nil {
			fn()
		}
	})
}

// Free releases the slot at the given offset, returning every copy's
// storage to its server (or clearing the spill/lost bookkeeping). The
// hypervisor frees a slot when the page is faulted back in (mirroring
// Linux freeing the swap entry), so a page that churns between RAM and
// swap does not leak server memory.
func (ns *Namespace) Free(off uint32) {
	if int(off) >= len(ns.placement) {
		panic("vmd: free past end of namespace")
	}
	ns.invalidateStaging(off)
	sIdx := ns.placement[off]
	if sIdx == noServer {
		if st := ns.ctHolder(off); st != nil {
			ns.ctierFree(st, off)
			return
		}
		if ns.spilled != nil && ns.spilled[off] != nil {
			delete(ns.spilled, off)
			ns.stored--
			return
		}
		if ns.lost != nil && ns.lost.Test(mem.PageID(off)) {
			ns.lost.Clear(mem.PageID(off))
			ns.lostPages--
			ns.stored--
			return
		}
		panic(fmt.Sprintf("vmd: free of unwritten offset %d in %s", off, ns.name))
	}
	ns.releaseSlot(off, ns.vmd.servers[sIdx])
	if ns.replicas != nil {
		for _, cp := range ns.replicas[off] {
			ns.releaseCopy(cp)
		}
		ns.replicas[off] = nil
	}
	ns.placement[off] = noServer
	ns.stored--
}

// HasPage reports whether the offset holds a stored page (including one
// spilled to a client disk, and one lost to a crash — the client still
// holds a swap entry for it and must be able to fault it back).
func (ns *Namespace) HasPage(off uint32) bool {
	if int(off) >= len(ns.placement) {
		return false
	}
	if ns.placement[off] != noServer {
		return true
	}
	if ns.spilled != nil && ns.spilled[off] != nil {
		return true
	}
	if ns.ctHolder(off) != nil {
		return true
	}
	return ns.lost != nil && ns.lost.Test(mem.PageID(off))
}

// releaseSlot returns one offset's primary storage to the owning server's
// correct tier.
func (ns *Namespace) releaseSlot(off uint32, s *Server) {
	if ns.onDisk.Test(mem.PageID(off)) {
		ns.onDisk.Clear(mem.PageID(off))
		if !s.down {
			s.diskUsed--
		}
		return
	}
	if !s.down {
		s.used--
	}
}
