// Package experiments reproduces every table and figure of the paper's
// evaluation (§V) on the simulated testbed. Each experiment has a Run
// function returning typed results and a Print helper that emits the same
// rows or series the paper reports. The cmd/agilesim binary and the
// repository's benchmarks are thin wrappers around this package.
//
// Every experiment accepts a Scale factor: 1.0 reproduces the paper's
// sizes and timings (10 GB VMs, 23 GB hosts, ~1000 simulated seconds);
// smaller scales shrink memory sizes and phase durations proportionally so
// the full suite can run quickly in tests. Because migration time is
// bandwidth-bound, shapes (who wins, by what factor, where crossovers
// fall) are preserved under scaling; absolute seconds scale with it.
package experiments

import (
	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/host"
	"agilemig/internal/workload"
)

// Paper parameters (§V).
const (
	// PaperHostRAM is the boot-limited host memory for §V-A and §V-C.
	PaperHostRAM = 23 * cluster.GiB
	// PaperVMMem is the VM size in the 4-VM scenarios.
	PaperVMMem = 10 * cluster.GiB
	// PaperReservation is the per-VM cgroup reservation under pressure.
	PaperReservation = 5632 * cluster.MiB // 5.5 GB
	// PaperYCSBDataset is each VM's Redis dataset.
	PaperYCSBDataset = 9 * cluster.GiB
	// PaperSysbenchDataset is each VM's MySQL dataset.
	PaperSysbenchDataset = 8 * cluster.GiB
	// PaperSmallFraction / PaperLargeFraction are the YCSB queried
	// fractions before and after the load ramp.
	PaperSmallFraction = 200 * cluster.MiB
	PaperLargeFraction = 6 * cluster.GiB
	// PaperNumVMs is the number of VMs on the source host.
	PaperNumVMs = 4
)

// mustMigrate starts a migration whose preconditions the experiment has
// already ensured (fresh testbed, no prior migration); a rejection here is
// a scenario bug, not a runtime condition.
func mustMigrate(tb *cluster.Testbed, h *cluster.VMHandle, tech core.Technique, dest *host.Host, destResv int64, tun core.Tuning) *core.Migration {
	m, err := tb.Migrate(h, tech, dest, destResv, tun)
	if err != nil {
		panic(err)
	}
	return m
}

// scaleBytes scales a byte quantity, keeping page alignment.
func scaleBytes(b int64, scale float64) int64 {
	v := int64(float64(b) * scale)
	const page = 4096
	if v < page {
		v = page
	}
	return v - v%page
}

// scaleSeconds scales a duration in seconds.
func scaleSeconds(s float64, scale float64) float64 {
	v := s * scale
	if v < 1 {
		v = 1
	}
	return v
}

// ycsbClient returns the YCSB client shape used across experiments (the
// preset already accounts for Redis dirtying the accessed page on reads,
// which is what makes pre-copy retransmit against a read-only workload).
func ycsbClient() workload.ClientConfig {
	cfg := workload.YCSB()
	cfg.MaxOpsPerSecond = 20_000
	return cfg
}

// sysbenchClient returns the Sysbench OLTP client shape. The cap models
// the MySQL server's own transaction ceiling (locking, log writes); under
// memory pressure and migration interference the measured rate falls well
// below it, which is what Table I compares.
func sysbenchClient() workload.ClientConfig {
	cfg := workload.Sysbench()
	cfg.MaxOpsPerSecond = 300
	return cfg
}
