package cluster

import (
	"fmt"

	"agilemig/internal/core"
	"agilemig/internal/ctlplane"
	"agilemig/internal/mem"
)

// This file binds *Testbed to the ctlplane.Cluster interface, so a
// ctlplane.Controller can drive the testbed declaratively. The dependency
// is one-way: cluster imports ctlplane for the types; ctlplane never sees
// this package.

// HostCapacities implements ctlplane.Cluster: one capacity snapshot per
// host, in the testbed's fixed host order (source, dest, extras).
func (tb *Testbed) HostCapacities() []ctlplane.HostCapacity {
	hosts := tb.Hosts()
	out := make([]ctlplane.HostCapacity, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, ctlplane.HostCapacity{
			Name:                 h.Name(),
			RAMBytes:             mem.PagesToBytes(h.RAMPages()),
			FreeReservationBytes: h.FreeReservationBytes(),
		})
	}
	return out
}

// VMHost implements ctlplane.Cluster: the host the VM currently executes
// on ("" if the VM is unknown).
func (tb *Testbed) VMHost(vm string) string {
	h := tb.vms[vm]
	if h == nil || h.curHost == nil {
		return ""
	}
	return h.curHost.Name()
}

// Launch implements ctlplane.Cluster: start a live migration of the named
// VM to the named destination, with the controller's completion callback
// chained behind the testbed's own result bookkeeping.
func (tb *Testbed) Launch(vm, dest string, tech core.Technique, destReservationBytes, capBytesPerSec int64, onDone func(*core.Result)) (ctlplane.Handle, error) {
	h := tb.vms[vm]
	if h == nil {
		return nil, fmt.Errorf("cluster: unknown VM %q", vm)
	}
	d := tb.HostByName(dest)
	if d == nil {
		return nil, fmt.Errorf("cluster: unknown host %q", dest)
	}
	m, err := tb.Migrate(h, tech, d, destReservationBytes,
		core.Tuning{BandwidthCapBytesPerSec: capBytesPerSec})
	if err != nil {
		return nil, err
	}
	// Install the callback only after the start is accepted: a rejected
	// Launch (e.g. ErrMigrationActive) must not disturb the callback of a
	// migration already in flight for this VM. core.Start is purely
	// event-driven, so the new migration cannot complete before this line.
	h.onDone = onDone
	return m, nil
}
