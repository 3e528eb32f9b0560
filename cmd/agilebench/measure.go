package main

import (
	"fmt"
	"io"
	"time"

	"agilemig/internal/detorder"
)

// metric is one printed figure: its name, unit, and how it is read from
// the repetitions of one run. BENCHMARK.json at the repository root lists
// the same names and units; the self-test keeps the two in step.
type metric struct {
	name, unit string
	value      func(s *samples) float64
}

// samples are the repetitions of one run: untraced ones for the timings
// users see, traced ones for the layer timings.
type samples struct {
	untraced, traced []*record
	attempted        int
	failed           int
	// speed is refCalibS ÷ the run's median calibration time.
	speed float64
}

// med is the median of f over the records.
func med(recs []*record, f func(*record) float64) float64 {
	v := make([]float64, len(recs))
	for i, r := range recs {
		v[i] = f(r)
	}
	return median(v)
}

func count(name string) func(*samples) float64 {
	return func(s *samples) float64 { return s.untraced[0].Counts[name] }
}

func traced(name string) func(*samples) float64 {
	return func(s *samples) float64 { return med(s.traced, func(r *record) float64 { return r.Layers[name] }) }
}

// host scales a host-time figure to the reference host's speed.
func host(f func(*samples) float64) func(*samples) float64 {
	return func(s *samples) float64 { return f(s) * s.speed }
}

func untracedMed(f func(*record) float64) func(*samples) float64 {
	return func(s *samples) float64 { return med(s.untraced, f) }
}

// pagesMoved is full pages plus offset records: the unit of migration work.
func pagesMoved(r *record) float64 {
	return r.Counts["core.pages_sent"] + r.Counts["core.offset_records"]
}

var endToEnd = []metric{
	{"setup_s", "s", host(untracedMed((*record).setupS))},
	{"migrate_s", "s", host(untracedMed(func(r *record) float64 { return r.MigrateS }))},
	{"peak_rss_mb", "MB", untracedMed(func(r *record) float64 { return r.PeakRSSMB })},
	{"alloc_mb", "MB", untracedMed(func(r *record) float64 { return r.AllocMB })},
	// The complement of the failed share: a metric gated on its median
	// must not be zero.
	{"migrations_ok_share", "share", func(s *samples) float64 { return 1 - ratio(float64(s.failed), float64(s.attempted)) }},
}

var perLayer = []metric{
	{"sim.steps", "count", traced("sim.steps")},
	{"sim.ff_share", "share", traced("sim.ff_share")},
	{"sim.step_us_p50", "us", host(traced("sim.step_us_p50"))},
	{"sim.step_us_p99", "us", host(traced("sim.step_us_p99"))},
	{"sim.shard_busy_share", "share", traced("sim.shard_busy_share")},
	{"sim.shard_imbalance", "ratio", traced("sim.shard_imbalance")},

	{"workload.ops", "count", count("workload.ops")},
	{"workload.stalled", "count", count("workload.stalled")},
	{"guest.faults", "count", count("guest.faults")},
	{"workload.phase_s", "s", host(traced("workload.phase_s"))},
	{"workload.allocs_per_op", "count", untracedMed(func(r *record) float64 {
		return ratio(float64(r.WarmMallocs), float64(r.WarmOps))
	})},

	{"cgroup.phase_s", "s", host(traced("cgroup.phase_s"))},
	{"cgroup.swap_out_pages", "count", count("cgroup.swap_out_pages")},
	{"cgroup.swap_in_pages", "count", count("cgroup.swap_in_pages")},
	{"cgroup.evict_cancel_share", "share", count("cgroup.evict_cancel_share")},
	{"cgroup.throttled_hwm", "count", traced("cgroup.throttled_hwm")},
	{"cgroup.throttled_hwm_share", "share", traced("cgroup.throttled_hwm_share")},

	{"blockdev.phase_s", "s", host(traced("blockdev.phase_s"))},
	{"blockdev.read_mb", "MB", count("blockdev.read_mb")},
	{"blockdev.write_mb", "MB", count("blockdev.write_mb")},

	{"simnet.phase_s", "s", host(traced("simnet.phase_s"))},
	{"simnet.tx_mb", "MB", count("simnet.tx_mb")},
	{"simnet.msgs_lost", "count", count("simnet.msgs_lost")},

	{"vmd.pages_written", "count", count("vmd.pages_written")},
	{"vmd.pages_read", "count", count("vmd.pages_read")},
	{"vmd.retry_share", "share", count("vmd.retry_share")},
	{"vmd.lost_pages", "count", count("vmd.lost_pages")},

	{"core.phase_s", "s", host(traced("core.phase_s"))},
	{"core.pages_sent", "count", count("core.pages_sent")},
	{"core.offset_records", "count", count("core.offset_records")},
	{"core.demand_requests", "count", count("core.demand_requests")},
	{"core.rounds", "count", count("core.rounds")},
	{"core.resend_share", "share", count("core.resend_share")},
	{"core.us_per_page", "us", host(untracedMed(func(r *record) float64 { return ratio(r.MigrateS*1e6, pagesMoved(r)) }))},
	{"core.allocs_per_page", "count", untracedMed(func(r *record) float64 {
		return ratio(float64(r.MigrateMallocs), pagesMoved(r))
	})},
	{"core.migration_s_p50", "s", host(traced("core.migration_s_p50"))},
	{"core.sim_total_s", "s", count("core.sim_total_s")},
	{"core.sim_downtime_ms", "ms", count("core.sim_downtime_ms")},
	{"core.sim_data_mb", "MB", count("core.sim_data_mb")},

	{"ctlplane.place_us", "us", host(traced("ctlplane.place_us"))},
	{"ctlplane.launch_ms", "ms", host(traced("ctlplane.launch_ms"))},
	{"ctlplane.pending_s", "s", count("ctlplane.pending_s")},

	{"cluster.build_s", "s", host(untracedMed(func(r *record) float64 { return r.BuildS }))},
	{"cluster.warm_s", "s", host(untracedMed(func(r *record) float64 { return r.WarmS }))},

	{"trace_overhead_share", "share", func(s *samples) float64 {
		wall := func(r *record) float64 { return r.setupS() + r.MigrateS }
		return ratio(med(s.traced, wall), med(s.untraced, wall)) - 1
	}},
	{"migrations_failed", "share", func(s *samples) float64 { return ratio(float64(s.failed), float64(s.attempted)) }},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type result struct {
	meta map[string]string
	line resultLine
}

// minReps is the fewest repetitions a median is taken over, of each kind
// the run reports.
const minReps = 3

// measure repeats the workload in child processes for o.seconds, then
// checks and summarises the repetitions. Untraced and traced repetitions
// alternate when per-layer metrics are asked for; otherwise a single
// traced repetition follows the measured ones, for the digest check.
// The calibration kernel runs before every measured repetition.
func measure(o options, stderr io.Writer) (result, error) {
	var s samples
	var walls, calib []float64
	cal := newCalibrator()
	start := time.Now()
	for {
		nU, nT := len(s.untraced), len(s.traced)
		enough := nU >= minReps && (!o.trace || nT >= minReps)
		if enough && time.Since(start).Seconds()+median(walls) > o.seconds {
			break
		}
		c := cal.run().Seconds()
		calib = append(calib, c)
		rec, err := runChild(o, o.trace && nT < nU, stderr)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, c+rec.WallS)
		if rec.Traced {
			s.traced = append(s.traced, rec)
		} else {
			s.untraced = append(s.untraced, rec)
		}
	}
	s.speed = refCalibS / median(calib)
	if len(s.traced) == 0 {
		rec, err := runChild(o, true, stderr)
		if err != nil {
			return result{}, err
		}
		s.traced = append(s.traced, rec)
	}

	correct := true
	want := s.untraced[0].Digest
	for _, r := range append(append([]*record(nil), s.untraced...), s.traced...) {
		s.attempted += r.Submitted
		bad := len(r.Violations) > 0
		for _, v := range r.Violations {
			fmt.Fprintln(stderr, "agilebench: violation:", v)
		}
		if r.Digest != want {
			fmt.Fprintf(stderr, "agilebench: violation: digest %s (traced=%v) differs from %s\n", r.Digest, r.Traced, want)
			bad = true
		}
		if bad {
			correct = false
			s.failed += r.Submitted
		} else {
			s.failed += r.Submitted - r.Succeeded
		}
	}

	metrics := endToEnd
	if o.trace {
		metrics = perLayer
	}
	line := resultLine{Correct: correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		line.Metrics[m.name] = value{Value: m.value(&s), Unit: m.unit}
	}
	meta := runMeta(o)
	meta["digest"] = want
	meta["calib_s"] = fmt.Sprintf("%.4f (median of %d; host-time metrics are scaled by %.4f)", median(calib), len(calib), s.speed)
	meta["repetitions"] = fmt.Sprintf("%d untraced, %d traced", len(s.untraced), len(s.traced))
	report(stderr, meta, metrics, line)
	return result{meta: meta, line: line}, nil
}

// report prints the run as a table on stderr.
func report(w io.Writer, meta map[string]string, metrics []metric, line resultLine) {
	for _, k := range detorder.Keys(meta) {
		fmt.Fprintf(w, "# %-11s %s\n", k, meta[k])
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, line.Metrics[m.name].Value, m.unit)
	}
	if _, ok := line.Metrics["simnet.phase_s"]; ok {
		fmt.Fprintln(w, "# simnet.phase_s includes the delivery callbacks simnet makes into other layers")
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", line.Correct, line.Attempted, line.Failed)
}
