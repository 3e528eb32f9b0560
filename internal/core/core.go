// Package core implements the paper's contribution: live VM migration
// engines on the simulated KVM/QEMU-like substrate. Three techniques are
// provided:
//
//   - PreCopy — classic iterative pre-copy (§II): rounds over the dirty
//     bitmap while the VM runs at the source, swapping in any swapped-out
//     page before sending it, then a stop-and-copy round.
//   - PostCopy — immediate switchover (§II): CPU state moves first, the VM
//     resumes at the destination, and memory follows by active push plus
//     demand paging from the source (which must swap pages in to serve
//     them).
//   - Agile — the paper's hybrid (§III): one live round that streams only
//     resident pages and sends 16-byte offset records for swapped ones,
//     switchover, then active push of the pages dirtied during the round,
//     with destination faults routed either to the source (dirty pages) or
//     directly to the per-VM VMD swap device (cold pages).
//
// The Migration Manager on each side is modelled by a single Migration
// object driving both ends over three flows: the migration TCP stream
// (push), a demand-page response stream, and a control/request channel —
// all sharing NIC bandwidth with application traffic.
package core

import (
	"fmt"

	"agilemig/internal/cgroup"
	"agilemig/internal/guest"
	"agilemig/internal/host"
	"agilemig/internal/metrics"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
	"agilemig/internal/vmd"
)

// Technique selects the migration algorithm.
type Technique int

// PreCopy, PostCopy and Agile are the three techniques compared throughout
// the paper's evaluation. ScatterGather additionally implements the fast
// server-deprovisioning technique of the authors' prior work the paper
// cites ([22], discussed in §VI): the suspended VM's resident pages are
// scattered to the VMD intermediaries at full source-NIC speed (no
// destination involvement), the destination resumes immediately and
// gathers pages from the per-VM swap device on demand — freeing the source
// as fast as the network allows even when the destination is constrained.
const (
	PreCopy Technique = iota
	PostCopy
	Agile
	ScatterGather
)

// String returns the technique name as used in the paper's tables.
func (t Technique) String() string {
	switch t {
	case PreCopy:
		return "pre-copy"
	case PostCopy:
		return "post-copy"
	case Agile:
		return "agile"
	case ScatterGather:
		return "scatter-gather"
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// The engine's fixed parameters. Each has one value in every run; a
// parameter becomes a Tuning field only when two callers need different
// values.
const (
	// windowBytes bounds the unsent backlog queued on the migration stream
	// (socket-buffer depth); it keeps the scan synchronized with what the
	// network actually drains.
	windowBytes = 2 << 20
	// maxSwapInFlight bounds concurrent migration-driven swap-ins at the
	// source (QEMU's sequential page reads fault a handful at a time).
	maxSwapInFlight = 16
	// pumpPagesPerTick bounds how many pages the scan visits per tick
	// (memory-scan speed).
	pumpPagesPerTick = 4096
	// pageHeaderBytes is the per-page framing on the wire.
	pageHeaderBytes = 16
	// recordBytes is the size of a swapped-offset or untouched record
	// (the paper's 16-byte offset record).
	recordBytes = 16
	// cpuStateBytes is the device+vCPU state shipped at switchover.
	cpuStateBytes = 8 << 20
	// preCopyMaxRounds caps the iterative phase.
	preCopyMaxRounds = 30
	// preCopyStopPages: suspend when the dirty set falls to this size,
	// ~250 ms of line rate at 1 Gbps.
	preCopyStopPages = 7680
	// demandRequestBytes is the size of a destination fault request.
	demandRequestBytes = 32
	// swapInCluster is how many consecutive swapped pages one
	// migration-driven swap-in brings back in a single device request
	// (Linux swap readahead; the kernel default cluster is 8 pages).
	swapInCluster = 8
	// autoConvergeStep is the multiplicative vCPU-quota cut per
	// non-converging pre-copy round, down to autoConvergeFloor.
	autoConvergeStep  = 0.7
	autoConvergeFloor = 0.2
	// maxScatterInFlight bounds concurrent VMD writes during a
	// scatter-gather migration's scatter phase.
	maxScatterInFlight = 128
	// demandRetryMax bounds demand-request re-sends per page when retries
	// are armed. After the budget the page is left to the active push.
	demandRetryMax = 8
)

// Tuning holds the migration's per-call switches. The zero value is the
// paper's engine.
type Tuning struct {
	// BatchPages coalesces runs of consecutive same-kind pages into one
	// wire message on the bulk paths (pre-copy rounds, active push, the
	// scatter phase): up to this many page bodies share a single
	// pageHeaderBytes frame (or, for scatter, a single VMD batch write).
	// Zero or one sends page-at-a-time, byte-identical to the unbatched
	// engine.
	BatchPages int

	// AutoConverge enables SDPS-style vCPU throttling for pre-copy (§VI:
	// "SDPS slows down vCPUs to speed up migration of write-intensive
	// VMs [but] degrades the application performance further"): whenever a
	// round fails to shrink the dirty set, the guest's CPU quota is cut by
	// autoConvergeStep, down to autoConvergeFloor; full speed returns at
	// switchover.
	AutoConverge bool

	// DisableActivePush is an ablation switch: post-switchover pages move
	// only by demand paging. The paper argues this makes the transfer take
	// "an unbounded amount of time" — with the flag set the migration
	// never reaches completion on its own; measure a window instead.
	DisableActivePush bool
	// NoRemoteSwap is an ablation switch for Agile: the per-VM swap device
	// is not reachable from the destination, so swapped pages must be
	// swapped in at the source and transferred like pre-copy does — the
	// VMware-style configuration §VI contrasts against.
	NoRemoteSwap bool

	// GatherPrefetch makes the scatter-gather destination actively pull
	// pages from the VMD (up to its reservation) after the source is
	// freed, instead of waiting for faults.
	GatherPrefetch bool

	// DemandRetrySeconds arms demand-paging timeouts: a destination fault
	// request unanswered after this long is re-sent with exponential
	// backoff (doubling per attempt, capped at 16x), up to demandRetryMax
	// re-sends. Zero (the default) disables retries — on a fault-free
	// cluster every request is answered, and the timers are pure overhead.
	DemandRetrySeconds float64

	// BandwidthCapBytesPerSec, when positive, shapes the migration's data
	// flows (the push stream and the demand-response stream, each) to at
	// most this rate, regardless of the fair share NIC arbitration would
	// grant — the per-migration bandwidth cap a control plane sets so one
	// drain cannot starve application traffic. Zero leaves the flows
	// uncapped and the simulation byte-identical to builds without the
	// knob.
	BandwidthCapBytesPerSec int64
}

// Spec describes one migration.
type Spec struct {
	VM     *guest.VM
	Source *host.Host
	Dest   *host.Host

	// DestReservationBytes is the VM's cgroup reservation at the
	// destination.
	DestReservationBytes int64
	// DestBackend is the VM's swap backend at the destination: the
	// destination's shared partition for pre-/post-copy, or the VM's own
	// VMD namespace (via the destination's client) for Agile.
	DestBackend cgroup.SwapBackend
	// Namespace is the VM's per-VM swap device; required for Agile (it is
	// re-attached at the destination at switchover and detached from the
	// source when the in-memory state has fully migrated).
	Namespace *vmd.Namespace
	// Latency is the one-way network latency between the hosts, in ticks.
	Latency sim.Duration
	// Tuning holds the migration's switches; the zero value is the
	// paper's engine.
	Tuning Tuning

	// Trace, when non-nil, records phase-level events (round boundaries,
	// suspension, switchover, drain) for inspection.
	Trace *trace.Trace

	// Metrics, when non-nil, receives the destination cgroup's gauges so a
	// sampled registry covers both ends of the migration.
	Metrics *metrics.Registry
	// OnSwitchover runs the instant execution moves to the destination
	// (clients retarget their flows here).
	OnSwitchover func()
	// OnComplete runs when the source holds no VM state anymore.
	OnComplete func(*Result)
}

// Result reports what the migration did, in the units the paper's tables
// use.
type Result struct {
	Technique Technique
	VMName    string

	Start      sim.Time
	Switchover sim.Time
	End        sim.Time

	TotalSeconds      float64
	DowntimeSeconds   float64
	BytesTransferred  int64 // bytes on the migration flows (Table III)
	PagesSent         int64 // full pages streamed (all phases)
	PagesDemandServed int64 // subset of PagesSent sent as demand responses
	OffsetRecords     int64 // Agile: swapped pages sent by reference
	UntouchedRecords  int64 // Agile: never-touched pages sent by reference
	DemandRequests    int64 // destination faults that went to the source
	Rounds            int   // pre-copy iterations (including stop-and-copy)
	ThrottleEvents    int   // auto-converge vCPU throttles applied
	PagesScattered    int64 // scatter-gather: pages written to the VMD
	DemandRetries     int64 // demand requests re-sent after a timeout
	// StaleOffsetRecords counts Agile offset records invalidated before
	// switchover by a clean source fault-in freeing the referenced slot;
	// those pages are re-pushed in full.
	StaleOffsetRecords int64
	Aborted            bool // rolled back to the source before switchover
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s of %s: total %.2fs, downtime %.3fs, %.1f MB transferred (%d pages, %d offset records, %d demand)",
		r.Technique, r.VMName, r.TotalSeconds, r.DowntimeSeconds,
		float64(r.BytesTransferred)/1e6, r.PagesSent, r.OffsetRecords, r.DemandRequests)
}
