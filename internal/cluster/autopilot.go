package cluster

import (
	"agilemig/internal/core"
	"agilemig/internal/detorder"
	"agilemig/internal/sim"
	"agilemig/internal/wss"
)

// Autopilot closes the loop the paper leaves as ongoing work (§IV-D: "we
// are currently enhancing this tool to compile the aggregate WSS of all
// VMs and to trigger migration when the aggregate exceeds a threshold"):
// it runs a working-set tracker on every VM of the source host, feeds the
// aggregate into the watermark trigger, and migrates the selected VMs with
// Agile migration when pressure is detected.
type Autopilot struct {
	tb       *Testbed
	cfg      AutopilotConfig
	trackers map[string]*wss.Tracker
	trigger  *wss.Trigger

	queue     []string
	migrating *VMHandle
	migrated  []string
	stopped   bool
}

// AutopilotConfig shapes the controller.
type AutopilotConfig struct {
	// Watermarks over the aggregate working-set estimate.
	HighWatermarkBytes int64
	LowWatermarkBytes  int64
	CheckInterval      float64 // seconds
	// Tracker parameters applied to every VM.
	Tracker wss.TrackerConfig
	// DestReservationBytes for migrated VMs (0: keep the tracked estimate).
	DestReservationBytes int64
	// Technique defaults to Agile (the zero value selects it; an agile
	// response is the point of the controller — §III).
	Technique core.Technique
}

// StartAutopilot attaches trackers to every VM currently on the source
// host and starts the watermark trigger.
func (tb *Testbed) StartAutopilot(cfg AutopilotConfig) *Autopilot {
	if cfg.HighWatermarkBytes <= 0 || cfg.LowWatermarkBytes <= 0 {
		panic("cluster: autopilot without watermarks")
	}
	if cfg.Technique == core.PreCopy {
		// The zero value selects the paper's technique; a pre-copy
		// "agility controller" would defeat its own purpose.
		cfg.Technique = core.Agile
	}
	a := &Autopilot{tb: tb, cfg: cfg, trackers: make(map[string]*wss.Tracker)}
	for name, h := range tb.vms {
		a.trackers[name] = wss.NewTracker(tb.Eng, h.VM.Group(), cfg.Tracker)
	}
	a.trigger = wss.NewTrigger(tb.Eng, wss.TriggerConfig{
		HighWatermarkBytes: cfg.HighWatermarkBytes,
		LowWatermarkBytes:  cfg.LowWatermarkBytes,
		CheckInterval:      cfg.CheckInterval,
	}, a.aggregate, a.onPressure)
	return a
}

// Stop halts the trigger and every tracker.
func (a *Autopilot) Stop() {
	a.stopped = true
	a.trigger.Stop()
	for _, name := range detorder.Keys(a.trackers) {
		a.trackers[name].Stop()
	}
}

// Migrated returns the names of the VMs the autopilot has moved, in order.
func (a *Autopilot) Migrated() []string { return a.migrated }

// Tracker returns the tracker of a VM, or nil.
func (a *Autopilot) Tracker(name string) *wss.Tracker { return a.trackers[name] }

// aggregate reports each source-resident VM's working-set estimate. Until
// every tracker has converged at least once the estimates still carry the
// initial reservations, so the aggregate reports nothing and the trigger
// stays quiet.
func (a *Autopilot) aggregate() map[string]int64 {
	out := make(map[string]int64)
	for _, name := range a.tb.Source.VMs() {
		t, ok := a.trackers[name]
		if !ok {
			continue
		}
		if !t.EverStable() {
			return nil
		}
		out[name] = t.EstimateBytes()
	}
	return out
}

// onPressure queues the selected VMs and starts migrating them one at a
// time (migrations serialize on the NIC anyway, and moving one VM may
// already clear the pressure).
func (a *Autopilot) onPressure(names []string) {
	if a.stopped {
		return
	}
	a.queue = append(a.queue, names...)
	a.kick()
}

func (a *Autopilot) kick() {
	if a.migrating != nil || len(a.queue) == 0 || a.stopped {
		return
	}
	name := a.queue[0]
	a.queue = a.queue[1:]
	h := a.tb.VMHandleOf(name)
	if h == nil || a.tb.Source.VM(name) == nil {
		a.kick()
		return
	}
	// The tracker must not fight the migration for the reservation knob.
	if t, ok := a.trackers[name]; ok {
		t.Stop()
	}
	tech := a.cfg.Technique
	destResv := a.cfg.DestReservationBytes
	if destResv == 0 {
		destResv = h.VM.Group().ReservationBytes()
	}
	a.migrating = h
	if _, err := a.tb.Migrate(h, tech, a.tb.Dest, destResv, core.Tuning{}); err != nil {
		// The VM is already mid-migration (it should not be — the autopilot
		// serializes its own moves); skip rather than corrupt state.
		a.migrating = nil
		return
	}
	// Poll for completion; migration callbacks belong to the testbed.
	a.tb.Eng.Every(a.tb.Eng.SecondsToTicks(1), func(sim.Time) bool {
		if a.stopped {
			return false
		}
		if h.Migration == nil || !h.Migration.Done() {
			return true
		}
		a.migrated = append(a.migrated, name)
		a.migrating = nil
		a.kick()
		return false
	})
}
