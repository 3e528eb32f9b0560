package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/metrics"
	"agilemig/internal/vmd"
	"agilemig/internal/workload"
)

// VMDSweepConfig shapes the store-mechanism comparison: the same Agile
// migration of a sequentially-scanned VM, run once per store variant (flat
// v1, +batched transfers, +readahead prefetch, +compressed local tier,
// +consistent-hash placement), on the same seed. The destination
// reservation is deliberately tight so the post-switchover workload demand-
// reads most of its dataset from the far-memory store — the path the v2
// mechanisms target.
type VMDSweepConfig struct {
	Scale float64
	Seed  uint64
	// BatchPages is the run length used by the batched variants (default 32).
	BatchPages int
	// Intermediates is the VMD server count (default 4, so placement and
	// rebalance have somewhere to spread).
	Intermediates int
	// Shards selects the parallel kernel width (0/1 = serial engine).
	Shards int
}

// DefaultVMDSweepConfig returns the scenario behind `agilesim vmdsweep`.
func DefaultVMDSweepConfig() VMDSweepConfig {
	return VMDSweepConfig{Scale: 1, Seed: 1, BatchPages: 32, Intermediates: 4}
}

// VMDSweepRow is one store variant's outcome.
type VMDSweepRow struct {
	Variant         string
	TotalSeconds    float64
	DowntimeSeconds float64
	// Demand-read latency percentiles over every VMD read completed after
	// the migration started (client-observed, milliseconds).
	ReadP50Ms float64
	ReadP99Ms float64
	ReadCount int64
	// PrefetchHitPct is staging hits over demand reads observed by the
	// prefetcher (0 when readahead is off).
	PrefetchHitPct float64
	// CtierPages is the compressed local tier's resident page count at the
	// end of the run (0 when tiering is off).
	CtierPages int64
	Retries    int64
	// TransferredMB is the migration flows' byte total.
	TransferredMB float64
}

// vmdSweepVariant names one store configuration of the sweep.
type vmdSweepVariant struct {
	name  string
	store vmd.StoreConfig
	tun   core.Tuning
}

// vmdSweepVariants builds the cumulative ladder: each step keeps the
// previous ones so the deltas read as incremental wins.
func vmdSweepVariants(cfg VMDSweepConfig, ctierCap int64) []vmdSweepVariant {
	b := cfg.BatchPages
	tiers := vmd.TierConfig{Enabled: true, CompressedCapPages: ctierCap}
	batched := core.Tuning{BatchPages: b}
	return []vmdSweepVariant{
		{name: "v1 flat"},
		{name: "+batch", store: vmd.StoreConfig{BatchPages: b}, tun: batched},
		{name: "+prefetch", store: vmd.StoreConfig{BatchPages: b, Readahead: true}, tun: batched},
		{name: "+ctier", store: vmd.StoreConfig{BatchPages: b, Readahead: true, Tiers: tiers}, tun: batched},
		{name: "+hash", store: vmd.StoreConfig{
			BatchPages: b, Readahead: true, Tiers: tiers,
			Placement: vmd.PlaceHash, RebalanceBytesPerSec: 64 * cluster.MiB,
		}, tun: batched},
	}
}

// RunVMDSweep runs every variant on a fresh testbed with the same seed and
// returns the rows in ladder order.
func RunVMDSweep(cfg VMDSweepConfig) []VMDSweepRow {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.BatchPages <= 0 {
		cfg.BatchPages = 32
	}
	if cfg.Intermediates <= 0 {
		cfg.Intermediates = 4
	}
	// The tier holds up to ~256 MiB (scaled) of the destination's cold
	// pages in compressed form.
	ctierCap := scaleBytes(256*cluster.MiB, cfg.Scale) / 4096
	var out []VMDSweepRow
	for _, v := range vmdSweepVariants(cfg, ctierCap) {
		out = append(out, runVMDSweepVariant(cfg, v))
	}
	return out
}

func runVMDSweepVariant(cfg VMDSweepConfig, v vmdSweepVariant) VMDSweepRow {
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.HostRAMBytes = scaleBytes(6*cluster.GiB, cfg.Scale)
	ccfg.Intermediates = cfg.Intermediates
	ccfg.IntermediateRAMBytes = scaleBytes(4*cluster.GiB, cfg.Scale)
	ccfg.Shards = cfg.Shards
	ccfg.VMD = v.store
	tb := cluster.New(ccfg)

	h := tb.DeployVM("sweep", scaleBytes(2*cluster.GiB, cfg.Scale),
		scaleBytes(768*cluster.MiB, cfg.Scale), true)
	h.LoadDataset(scaleBytes(1536*cluster.MiB, cfg.Scale))
	wcfg := workload.YCSB()
	wcfg.MaxOpsPerSecond = 10_000
	wcfg.WriteFraction = 0.05
	// A sequential scan: the access pattern far-memory readahead exists for.
	h.AttachClient(wcfg, dist.NewSequential(h.Store.Records()))

	tb.RunSeconds(scaleSeconds(120, cfg.Scale))

	// Record client-observed VMD read latencies from migration start on, in
	// a dense per-millisecond histogram: simulated latencies are tick-
	// quantized, so 1 ms buckets resolve every distinct value exactly and
	// the interpolated percentiles preserve strict orderings between
	// variants (the equivalence tests rely on prefetch p99 < flat p99).
	hist := metrics.NewHistogram("sweep/read.latency.seconds", sweepLatencyBounds())
	h.NS.SetReadLatencySink(hist.Observe)

	// A tight destination reservation forces the scan to demand-read from
	// the store after switchover.
	mustMigrate(tb, h, core.Agile, tb.Dest, scaleBytes(512*cluster.MiB, cfg.Scale), v.tun)
	if tb.RunUntilMigrated(h, 4000) != cluster.OutcomeCompleted {
		panic("experiments: vmdsweep migration did not finish: " + v.name)
	}
	tb.RunSeconds(scaleSeconds(60, cfg.Scale))

	row := VMDSweepRow{
		Variant:         v.name,
		TotalSeconds:    h.Result.TotalSeconds,
		DowntimeSeconds: h.Result.DowntimeSeconds,
		ReadCount:       hist.Count(),
		CtierPages:      h.NS.CtierPages(),
		TransferredMB:   float64(h.Result.BytesTransferred) / 1e6,
	}
	row.ReadP50Ms, row.ReadP99Ms = hist.P50()*1000, hist.P99()*1000
	_, _, retried := tb.Dest.VMDClient().Stats()
	row.Retries = retried
	if _, hits, misses, _ := h.NS.PrefetchStats(); hits+misses > 0 {
		row.PrefetchHitPct = 100 * float64(hits) / float64(hits+misses)
	}
	return row
}

// sweepLatencyBounds returns 1 ms buckets up to 100 ms plus a coarse tail
// — fine enough that every tick-quantized latency lands in its own bucket.
func sweepLatencyBounds() []float64 {
	var b []float64
	for ms := 1; ms <= 100; ms++ {
		b = append(b, float64(ms)/1000)
	}
	return append(b, 0.150, 0.250, 0.500, 1.0, 2.5, 5.0)
}

// PrintVMDSweep renders the variant ladder.
func PrintVMDSweep(w io.Writer, rows []VMDSweepRow) {
	table := metrics.NewTable(
		"Agile migration under a sequential scan, per VMD store variant",
		"variant", "total (s)", "downtime (s)", "read p50 (ms)", "read p99 (ms)",
		"reads", "prefetch hit%", "ctier pages", "retries", "transferred (MB)")
	for _, r := range rows {
		table.AddF(r.Variant,
			fmt.Sprintf("%.2f", r.TotalSeconds),
			fmt.Sprintf("%.3f", r.DowntimeSeconds),
			fmt.Sprintf("%.2f", r.ReadP50Ms),
			fmt.Sprintf("%.2f", r.ReadP99Ms),
			r.ReadCount,
			fmt.Sprintf("%.1f", r.PrefetchHitPct),
			r.CtierPages, r.Retries,
			fmt.Sprintf("%.1f", r.TransferredMB))
	}
	fmt.Fprint(w, table.String())
	fmt.Fprintln(w)
}
