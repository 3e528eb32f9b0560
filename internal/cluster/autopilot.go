package cluster

import (
	"agilemig/internal/core"
	"agilemig/internal/ctlplane"
	"agilemig/internal/detorder"
	"agilemig/internal/wss"
)

// Autopilot closes the loop the paper leaves as ongoing work (§IV-D: "we
// are currently enhancing this tool to compile the aggregate WSS of all
// VMs and to trigger migration when the aggregate exceeds a threshold"):
// it runs a working-set tracker on every VM of the source host, feeds the
// aggregate into the watermark trigger, and submits the selected VMs to
// its own migration controller when pressure is detected. The controller
// runs one migration at a time (migrations serialize on the NIC anyway,
// and moving one VM may already clear the pressure).
type Autopilot struct {
	tb       *Testbed
	cfg      AutopilotConfig
	trackers map[string]*wss.Tracker
	trigger  *wss.Trigger
	ctl      *ctlplane.Controller
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
	a := &Autopilot{
		tb:       tb,
		cfg:      cfg,
		trackers: make(map[string]*wss.Tracker),
		ctl:      ctlplane.NewController(tb.Eng, tb, ctlplane.Config{MaxConcurrent: 1, Trace: tb.Cfg.Trace}),
	}
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

// Stop halts the trigger and every tracker, and aborts every migration the
// autopilot submitted that has not finished (one already past switchover
// runs to completion).
func (a *Autopilot) Stop() {
	a.trigger.Stop()
	for _, name := range detorder.Keys(a.trackers) {
		a.trackers[name].Stop()
	}
	for _, m := range a.ctl.Migrations() {
		a.ctl.Abort(m.Name, "autopilot stopped")
	}
}

// Migrated returns the names of the VMs the autopilot has moved, in order.
func (a *Autopilot) Migrated() []string {
	var out []string
	for _, m := range a.ctl.Migrations() {
		if m.Status.Phase == ctlplane.PhaseSucceeded {
			out = append(out, m.Spec.VM)
		}
	}
	return out
}

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

// onPressure submits a migration to the destination for every selected
// VM (all on the source: aggregate reports no other) that has none live.
func (a *Autopilot) onPressure(names []string) {
	for _, name := range names {
		if m := a.ctl.Get("mig-" + name); m != nil && !m.Status.Phase.Terminal() {
			continue
		}
		// The tracker must not fight the migration for the reservation knob.
		a.trackers[name].Stop()
		destResv := a.cfg.DestReservationBytes
		if destResv == 0 {
			destResv = a.tb.vms[name].VM.Group().ReservationBytes()
		}
		a.ctl.Submit(ctlplane.Spec{
			VM:                   name,
			Technique:            a.cfg.Technique,
			DestHost:             a.tb.Dest.Name(),
			DestReservationBytes: destResv,
		})
	}
}
