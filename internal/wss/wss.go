// Package wss implements the paper's transparent working-set machinery:
//
//   - Tracker (§IV-D): periodically reads the per-VM swap device's I/O
//     counters (the iostat equivalent) and adjusts the VM's cgroup
//     reservation — grow by β (>1) while the swap rate exceeds threshold τ,
//     shrink by α (<1) otherwise. Adjustments run every FastInterval until
//     the estimate stabilizes, then back off to SlowInterval.
//   - Watermark trigger (§III-B): watches the aggregate working-set size of
//     all VMs on a host; when it exceeds the high watermark, selects the
//     fewest VMs whose departure brings the aggregate below the low
//     watermark and asks for their migration.
package wss

import (
	"sort"

	"agilemig/internal/cgroup"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/trace"
)

// TrackerConfig holds the adjustment parameters. The defaults are the
// paper's §V-D values.
type TrackerConfig struct {
	Alpha          float64 // shrink factor, < 1
	Beta           float64 // grow factor, > 1
	TauBytesPerSec float64 // swap-rate threshold τ
	FastInterval   float64 // seconds between adjustments while converging
	SlowInterval   float64 // seconds between adjustments once stable
	// MinReservationBytes floors the reservation so a completely idle VM
	// is not squeezed to nothing. Growth is capped at the VM's memory size.
	MinReservationBytes int64
}

// stableFlips is how many grow/shrink direction changes indicate the
// reservation is oscillating around the true working set.
const stableFlips = 4

// DefaultTrackerConfig returns the paper's parameters: α=0.95, β=1.03,
// τ=4 KB/s, 2 s fast interval, 30 s slow interval.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{
		Alpha:               0.95,
		Beta:                1.03,
		TauBytesPerSec:      4096,
		FastInterval:        2,
		SlowInterval:        30,
		MinReservationBytes: 64 << 20,
	}
}

// Tracker adjusts one VM's reservation to follow its working set.
type Tracker struct {
	eng   *sim.Engine
	group *cgroup.Group
	cfg   TrackerConfig

	win        cgroup.SwapRateWindow
	lastAdjust float64
	// dirHistory holds the most recent adjustment directions (true=grow);
	// the reservation is oscillating around the working set when recent
	// decisions keep flipping, not merely when one turnaround happened on
	// the way down.
	dirHistory  []bool
	stable      bool
	everStable  bool
	stableAt    int64 // reservation when stability was declared
	stableGrows int   // consecutive grow decisions while stable
	stopped     bool

	adjustments int64

	// em records convergence transitions; nil records nothing.
	em *trace.Emitter
}

// SetEmitter attaches a trace emitter for stability transitions; nil (the
// default) detaches.
func (t *Tracker) SetEmitter(em *trace.Emitter) { t.em = em }

// NewTracker starts tracking the group. Adjustment begins one FastInterval
// from now.
func NewTracker(eng *sim.Engine, g *cgroup.Group, cfg TrackerConfig) *Tracker {
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		panic("wss: alpha must be in (0,1)")
	}
	if cfg.Beta <= 1 {
		panic("wss: beta must exceed 1")
	}
	t := &Tracker{eng: eng, group: g, cfg: cfg, lastAdjust: eng.NowSeconds()}
	t.schedule(cfg.FastInterval)
	return t
}

// Stop halts further adjustments (e.g. when the VM migrates away).
func (t *Tracker) Stop() { t.stopped = true }

// Stable reports whether the tracker has backed off to the slow interval.
func (t *Tracker) Stable() bool { return t.stable }

// EverStable reports whether the tracker has converged at least once; its
// estimate is untrustworthy before that (it still carries the initial
// reservation).
func (t *Tracker) EverStable() bool { return t.everStable }

// Adjustments returns how many reservation adjustments have been applied.
func (t *Tracker) Adjustments() int64 { return t.adjustments }

// EstimateBytes returns the current working-set estimate (the reservation
// the tracker has converged on).
func (t *Tracker) EstimateBytes() int64 { return t.group.ReservationBytes() }

func (t *Tracker) schedule(afterSeconds float64) {
	t.eng.AfterSeconds(afterSeconds, t.adjust)
}

func (t *Tracker) adjust() {
	if t.stopped {
		return
	}
	now := t.eng.NowSeconds()
	elapsed := now - t.lastAdjust
	t.lastAdjust = now
	inPages, _ := t.win.Rates(t.group.Stats(), elapsed)
	rateBytes := mem.PagesFloatToBytes(inPages)

	resv := t.group.ReservationBytes()
	var next int64
	// Grow on swap-IN pressure only: swap-outs are the consequence of the
	// tracker's own shrinking and carry no information about the working
	// set, but reads mean the guest needed pages the reservation squeezed
	// out.
	grow := rateBytes > t.cfg.TauBytesPerSec
	if grow {
		next = int64(float64(resv) * t.cfg.Beta)
	} else {
		next = int64(float64(resv) * t.cfg.Alpha)
	}
	if next < t.cfg.MinReservationBytes {
		next = t.cfg.MinReservationBytes
	}
	if max := t.group.Table().Bytes(); next > max {
		next = max
	}
	if next != resv {
		t.group.SetReservationBytes(next)
		t.adjustments++
	}

	// Stability detection: the reservation has found the working set when
	// the adjustment direction keeps flipping within the recent decisions
	// (shrink until swapping starts, grow until it stops, ...). A rolling
	// window keeps one turnaround during the initial descent from being
	// mistaken for equilibrium.
	const dirWindow = 8
	t.dirHistory = append(t.dirHistory, grow)
	if len(t.dirHistory) > dirWindow {
		t.dirHistory = t.dirHistory[len(t.dirHistory)-dirWindow:]
	}
	recentFlips := 0
	for i := 1; i < len(t.dirHistory); i++ {
		if t.dirHistory[i] != t.dirHistory[i-1] {
			recentFlips++
		}
	}
	if !t.stable && recentFlips >= stableFlips {
		t.stable = true
		t.everStable = true
		t.stableAt = next
		if t.em.Enabled() {
			t.em.Emitf(now, trace.WSSStable, "working set converged at %d MB", next>>20)
		}
	}
	// If the working set moves, re-converge at the fast interval: either
	// the reservation has drifted far from the stable point, or the swap
	// rate keeps demanding growth (the working set expanded and β-steps at
	// the slow interval would take minutes to catch up).
	if t.stable {
		if grow {
			t.stableGrows++
		} else {
			t.stableGrows = 0
		}
		// Three grows in a row AND real upward drift distinguish working-set
		// growth from the equilibrium bounce (one α shrink needs two β grows
		// to recover, and fault-in tails can stretch that to three).
		ratio := float64(next) / float64(t.stableAt)
		if ratio > 1.25 || ratio < 0.75 || (t.stableGrows >= 3 && ratio > 1.08) {
			t.stable = false
			t.dirHistory = t.dirHistory[:0]
			t.stableGrows = 0
			if t.em.Enabled() {
				t.em.Emitf(now, trace.WSSUnstable, "working set moved (%d MB, was %d MB); re-converging", next>>20, t.stableAt>>20)
			}
		}
	}

	if t.stable {
		t.schedule(t.cfg.SlowInterval)
	} else {
		t.schedule(t.cfg.FastInterval)
	}
}

// SelectVMsToMigrate returns the fewest VMs whose removal brings the
// aggregate working-set size to or below lowWatermark (§III-B): candidates
// are considered largest-first, so removing few frees much. The returned
// names are in selection order. If even removing all VMs cannot reach the
// watermark, all names are returned.
func SelectVMsToMigrate(wssBytes map[string]int64, lowWatermark int64) []string {
	type vmWSS struct {
		name string
		wss  int64
	}
	var vms []vmWSS
	var total int64
	//lint:maporder sorted — vms is fully sorted below (wss desc, name tie-break) before selection
	for n, w := range wssBytes {
		vms = append(vms, vmWSS{n, w})
		total += w
	}
	sort.Slice(vms, func(i, j int) bool {
		if vms[i].wss != vms[j].wss {
			return vms[i].wss > vms[j].wss
		}
		return vms[i].name < vms[j].name
	})
	var picked []string
	for _, v := range vms {
		if total <= lowWatermark {
			break
		}
		picked = append(picked, v.name)
		total -= v.wss
	}
	return picked
}

// TriggerConfig configures the watermark-based pressure detector.
type TriggerConfig struct {
	HighWatermarkBytes int64
	LowWatermarkBytes  int64
	CheckInterval      float64 // seconds
}

// Trigger watches an aggregate WSS supplier and invokes the migrate
// callback when the high watermark is crossed. It will not fire again
// until the aggregate has dropped below the high watermark (the selected
// migrations are assumed to be in flight).
type Trigger struct {
	eng     *sim.Engine
	cfg     TriggerConfig
	supply  func() map[string]int64
	migrate func(names []string)
	armed   bool
	fired   int64
	stopped bool
}

// NewTrigger starts watching. supply returns each VM's current WSS
// estimate; migrate receives the selected VM names.
func NewTrigger(eng *sim.Engine, cfg TriggerConfig, supply func() map[string]int64, migrate func([]string)) *Trigger {
	if cfg.LowWatermarkBytes > cfg.HighWatermarkBytes {
		panic("wss: low watermark above high watermark")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 1
	}
	t := &Trigger{eng: eng, cfg: cfg, supply: supply, migrate: migrate, armed: true}
	eng.Every(eng.SecondsToTicks(cfg.CheckInterval), func(sim.Time) bool {
		if t.stopped {
			return false
		}
		t.check()
		return true
	})
	return t
}

// Stop halts the trigger.
func (t *Trigger) Stop() { t.stopped = true }

// Fired returns how many times the trigger has requested migrations.
func (t *Trigger) Fired() int64 { return t.fired }

func (t *Trigger) check() {
	wss := t.supply()
	var total int64
	for _, w := range wss {
		total += w
	}
	if !t.armed {
		// Hysteresis: re-arm once pressure has subsided below high.
		if total < t.cfg.HighWatermarkBytes {
			t.armed = true
		}
		return
	}
	if total <= t.cfg.HighWatermarkBytes {
		return
	}
	picked := SelectVMsToMigrate(wss, t.cfg.LowWatermarkBytes)
	if len(picked) == 0 {
		return
	}
	t.armed = false
	t.fired++
	t.migrate(picked)
}
