// Package agilemig is a reproduction of "Agile Live Migration of Virtual
// Machines" (Deshpande, Chan, Guh, Edouard, Gopalan, Bila — IPPS 2016) as
// a deterministic cluster simulation written in pure Go.
//
// The paper's contribution — a hybrid pre/post-copy live migration that
// transfers only a VM's working set while cold pages stay on a portable,
// per-VM remote swap device (the VMD) — is implemented in internal/core on
// top of a full substrate: a discrete-time simulation kernel, a fair-share
// network, block devices, cgroup-style memory control, guest VMs,
// benchmark workloads, the VMD distributed page store, and the
// transparent working-set tracker. This package re-exports the surface a
// downstream user needs: building testbeds, deploying VMs, migrating them
// with any of the three techniques, and tracking working sets.
//
// Quick start:
//
//	tb := agilemig.NewTestbed(agilemig.DefaultTestbedConfig())
//	vm := tb.DeployVM("demo", 2<<30, 768<<20, true)
//	vm.LoadDataset(1536 << 20)
//	tb.RunSeconds(120)
//	if _, err := tb.Migrate(vm, agilemig.Agile, tb.Dest, 768<<20, agilemig.MigrationTuning{}); err != nil {
//		log.Fatal(err)
//	}
//	if tb.RunUntilMigrated(vm, 2000) == agilemig.OutcomeCompleted {
//		fmt.Println(vm.Result)
//	}
//
// The experiments reproducing every table and figure of the paper live in
// internal/experiments and are runnable through cmd/agilesim; the
// examples/ directory holds self-contained scenarios.
package agilemig

import (
	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/workload"
	"agilemig/internal/wss"
)

// Technique selects a live-migration algorithm.
type Technique = core.Technique

// The three techniques the paper evaluates.
const (
	// PreCopy is classic iterative pre-copy migration.
	PreCopy = core.PreCopy
	// PostCopy is immediate-switchover post-copy migration with active
	// push and demand paging.
	PostCopy = core.PostCopy
	// Agile is the paper's hybrid: one live round of resident pages,
	// switchover, push of the round's dirtied pages, and cold pages served
	// directly from the per-VM VMD swap device.
	Agile = core.Agile
	// ScatterGather is the fast-eviction technique of the authors' prior
	// work ([22], §VI): resident pages scatter to the VMD intermediaries at
	// source-NIC speed and the destination gathers them on demand.
	ScatterGather = core.ScatterGather
)

// MigrationResult reports a completed migration in the paper's units.
type MigrationResult = core.Result

// MigrationTuning holds a migration's per-call switches: batched
// transfers, auto-converge, scatter-gather prefetch, demand-retry timeouts,
// a bandwidth cap, and the ablation switches. The zero value is the
// paper's engine.
type MigrationTuning = core.Tuning

// Testbed is an assembled cluster: source and destination hosts, VMD
// intermediates, and an external client machine.
type Testbed = cluster.Testbed

// TestbedConfig shapes a testbed.
type TestbedConfig = cluster.Config

// VM bundles a deployed VM with its swap namespace, dataset, benchmark
// client and migration state.
type VM = cluster.VMHandle

// Outcome is the typed result of Testbed.RunUntilMigrated: completed,
// aborted (rolled back to the source), or timed out still in flight.
type Outcome = cluster.Outcome

// The three wait outcomes.
const (
	OutcomeCompleted = cluster.OutcomeCompleted
	OutcomeAborted   = cluster.OutcomeAborted
	OutcomeTimeout   = cluster.OutcomeTimeout
)

// ClientConfig shapes a benchmark client.
type ClientConfig = workload.ClientConfig

// TrackerConfig shapes the transparent working-set tracker.
type TrackerConfig = wss.TrackerConfig

// Byte-size helpers.
const (
	KiB = cluster.KiB
	MiB = cluster.MiB
	GiB = cluster.GiB
)

// NewTestbed builds a cluster.
func NewTestbed(cfg TestbedConfig) *Testbed { return cluster.New(cfg) }

// DefaultTestbedConfig returns the paper's §V testbed: 23 GB hosts, 1 Gbps
// Ethernet, a 30 GB SSD swap partition, one VMD intermediate.
func DefaultTestbedConfig() TestbedConfig { return cluster.DefaultConfig() }

// YCSBClient returns the YCSB/Redis client shape of §V-A.
func YCSBClient() ClientConfig { return workload.YCSB() }

// SysbenchClient returns the Sysbench-OLTP client shape of §V-C.
func SysbenchClient() ClientConfig { return workload.Sysbench() }

// DefaultTrackerConfig returns the §V-D tracker parameters (α=0.95,
// β=1.03, τ=4 KB/s, 2 s→30 s adjustment intervals).
func DefaultTrackerConfig() TrackerConfig { return wss.DefaultTrackerConfig() }

// SelectVMsToMigrate picks the fewest VMs whose departure brings the
// aggregate working-set size below the low watermark (§III-B).
func SelectVMsToMigrate(wssBytes map[string]int64, lowWatermark int64) []string {
	return wss.SelectVMsToMigrate(wssBytes, lowWatermark)
}
