// Package report runs the full evaluation and renders a paper-vs-measured
// markdown report with every shape claim checked automatically. It is what
// produces the recorded section of EXPERIMENTS.md:
//
//	go run ./cmd/agilesim -scale 0.25 report > report.md
package report

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/experiments"
)

// Paper constants (§V), for side-by-side columns.
var paperTable = map[string]map[core.Technique]float64{
	"tableI-ycsb":       {core.PreCopy: 7653, core.PostCopy: 14926, core.Agile: 17112},
	"tableI-sysbench":   {core.PreCopy: 59.84, core.PostCopy: 74.74, core.Agile: 89.55},
	"tableII-ycsb":      {core.PreCopy: 470, core.PostCopy: 247, core.Agile: 108},
	"tableII-sysbench":  {core.PreCopy: 182.66, core.PostCopy: 157.56, core.Agile: 80.37},
	"tableIII-ycsb":     {core.PreCopy: 15029, core.PostCopy: 10268, core.Agile: 8173},
	"tableIII-sysbench": {core.PreCopy: 11298, core.PostCopy: 10268, core.Agile: 7757},
}

// Options configures a report run.
type Options struct {
	Scale float64
	Seed  uint64
	// Parallelism bounds the experiment-point workers within each section
	// (0 = all cores, 1 = serial). Results are identical either way.
	Parallelism int
	// Sections toggles (all true by default through Generate).
	Pressure bool
	Sweep    bool
	Tables   bool
	WSS      bool
	Ablation bool
}

// check renders a ✓/✗ marker with an explanation.
func check(pass bool, detail string) string {
	mark := "PASS"
	if !pass {
		mark = "DEVIATION"
	}
	return fmt.Sprintf("%s — %s", mark, detail)
}

// Generate runs everything and writes the markdown report.
func Generate(w io.Writer, opt Options) {
	if opt.Scale <= 0 {
		opt.Scale = 0.25
	}
	fmt.Fprintf(w, "# Measured results (scale %.2f, seed %d)\n\n", opt.Scale, opt.Seed)
	fmt.Fprintf(w, "Durations and byte volumes scale ≈ linearly with the scale factor;\n")
	fmt.Fprintf(w, "the ×%.0f column compares against the paper's full-scale numbers.\n\n", 1/opt.Scale)
	if opt.Pressure {
		pressureSection(w, opt)
	}
	if opt.Sweep {
		sweepSection(w, opt)
	}
	if opt.Tables {
		tablesSection(w, opt)
	}
	if opt.WSS {
		wssSection(w, opt)
	}
	if opt.Ablation {
		ablationSection(w, opt)
	}
}

func pressureSection(w io.Writer, opt Options) {
	fmt.Fprintf(w, "## Figures 4–6: YCSB under memory pressure\n\n")
	fmt.Fprintf(w, "| Technique | Migration (s, ×%.0f) | Paper (s) | Recovery to 90%% (s, ×%.0f) | Paper (s) |\n", 1/opt.Scale, 1/opt.Scale)
	fmt.Fprintln(w, "|---|---|---|---|---|")
	paperMig := map[core.Technique]float64{core.PreCopy: 470, core.PostCopy: 247, core.Agile: 108}
	paperRec := map[core.Technique]float64{core.PreCopy: 533, core.PostCopy: 294, core.Agile: 215}
	type row struct {
		tech core.Technique
		mig  float64
		rec  float64
	}
	techs := []core.Technique{core.PreCopy, core.PostCopy, core.Agile}
	cfg := experiments.DefaultPressureConfig(core.PreCopy)
	cfg.Scale = opt.Scale
	cfg.Seed = opt.Seed
	results := experiments.RunPressureTechniques(cfg, techs, opt.Parallelism)
	var rows []row
	for i, tech := range techs {
		r := results[i]
		mig, rec := -1.0, r.RecoverySeconds
		if r.Migration != nil && r.Migration.End != 0 {
			mig = r.Migration.TotalSeconds
		}
		rows = append(rows, row{tech, mig, rec})
		fmt.Fprintf(w, "| %s | %s | %.0f | %s | %.0f |\n",
			tech, scaled(mig, opt.Scale), paperMig[tech], scaled(rec, opt.Scale), paperRec[tech])
	}
	fmt.Fprintln(w)
	ok := rows[2].mig > 0 && rows[1].mig > 0 && rows[0].mig > 0 &&
		rows[2].mig < rows[1].mig && rows[1].mig < rows[0].mig
	fmt.Fprintf(w, "* Migration-time ordering agile < post < pre: %s\n",
		check(ok, fmt.Sprintf("%s / %s / %s s (×%.0f)", scaled(rows[2].mig, opt.Scale),
			scaled(rows[1].mig, opt.Scale), scaled(rows[0].mig, opt.Scale), 1/opt.Scale)))
	okRec := rows[2].rec > 0 && (rows[1].rec <= 0 || rows[2].rec < rows[1].rec)
	fmt.Fprintf(w, "* Agile recovers first: %s\n\n",
		check(okRec, fmt.Sprintf("agile %s s vs post %s s (×%.0f)",
			scaled(rows[2].rec, opt.Scale), scaled(rows[1].rec, opt.Scale), 1/opt.Scale)))
}

func sweepSection(w io.Writer, opt Options) {
	fmt.Fprintf(w, "## Figures 7–8: single-VM size sweep (6 GB host)\n\n")
	cfg := experiments.DefaultSizeSweepConfig()
	cfg.Scale = opt.Scale
	cfg.Seed = opt.Seed
	cfg.VMSizes = []int64{2 * cluster.GiB, 6 * cluster.GiB, 12 * cluster.GiB}
	rows := experiments.RunSizeSweep(cfg)
	get := func(tech core.Technique, sz int64, busy bool) experiments.SizeSweepRow {
		for _, r := range rows {
			if r.Technique == tech && r.VMBytes == sz && r.Busy == busy {
				return r
			}
		}
		return experiments.SizeSweepRow{}
	}
	fmt.Fprintf(w, "| Config | 2 GB time/data | 6 GB time/data | 12 GB time/data |\n")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
		for _, busy := range []bool{false, true} {
			v := "idle"
			if busy {
				v = "busy"
			}
			fmt.Fprintf(w, "| %s (%s) |", tech, v)
			for _, sz := range cfg.VMSizes {
				r := get(tech, sz, busy)
				fmt.Fprintf(w, " %.0fs / %.0fMB |", r.TotalSeconds/opt.Scale, r.DataMB/opt.Scale)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	// Shape checks.
	a6, a12 := get(core.Agile, 6*cluster.GiB, false), get(core.Agile, 12*cluster.GiB, false)
	fmt.Fprintf(w, "* Agile data flat past host memory: %s\n",
		check(a12.DataMB <= 1.35*a6.DataMB, fmt.Sprintf("6GB %.0f MB vs 12GB %.0f MB", a6.DataMB/opt.Scale, a12.DataMB/opt.Scale)))
	p6, p12 := get(core.PreCopy, 6*cluster.GiB, false), get(core.PreCopy, 12*cluster.GiB, false)
	fmt.Fprintf(w, "* Pre-copy data ≈ linear in VM size: %s\n",
		check(p12.DataMB >= 1.6*p6.DataMB, fmt.Sprintf("6GB %.0f MB vs 12GB %.0f MB", p6.DataMB/opt.Scale, p12.DataMB/opt.Scale)))
	bi, bb := get(core.PreCopy, 12*cluster.GiB, false), get(core.PreCopy, 12*cluster.GiB, true)
	fmt.Fprintf(w, "* Busy pre-copy costs more than idle at 12 GB: %s\n\n",
		check(bb.TotalSeconds > bi.TotalSeconds && bb.DataMB > bi.DataMB,
			fmt.Sprintf("busy %.0fs/%.0fMB vs idle %.0fs/%.0fMB", bb.TotalSeconds/opt.Scale, bb.DataMB/opt.Scale, bi.TotalSeconds/opt.Scale, bi.DataMB/opt.Scale)))
}

func tablesSection(w io.Writer, opt Options) {
	fmt.Fprintf(w, "## Tables I–III\n\n")
	results := experiments.RunAppPerfTables(opt.Scale, opt.Seed, opt.Parallelism)
	cell := func(wk experiments.WorkloadKind, tech core.Technique) *experiments.AppPerfResult {
		for _, r := range results {
			if r.Workload == wk && r.Technique == tech {
				return r
			}
		}
		return nil
	}
	name := map[experiments.WorkloadKind]string{
		experiments.WorkloadYCSB: "ycsb", experiments.WorkloadSysbench: "sysbench",
	}
	fmt.Fprintf(w, "| Metric | Pre-copy (paper) | Post-copy (paper) | Agile (paper) |\n")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, wk := range []experiments.WorkloadKind{experiments.WorkloadYCSB, experiments.WorkloadSysbench} {
		// Table I: throughput is not scaled (ops/s are absolute).
		fmt.Fprintf(w, "| I: %s ops/s |", name[wk])
		for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
			r := cell(wk, tech)
			fmt.Fprintf(w, " %.1f (%.0f) |", r.AvgOpsPerSec, paperTable["tableI-"+name[wk]][tech])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "| II: %s seconds ×%.0f |", name[wk], 1/opt.Scale)
		for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
			r := cell(wk, tech)
			v := -1.0
			if r.Migration != nil {
				v = r.Migration.TotalSeconds
			}
			fmt.Fprintf(w, " %s (%.0f) |", scaled(v, opt.Scale), paperTable["tableII-"+name[wk]][tech])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "| III: %s MB ×%.0f |", name[wk], 1/opt.Scale)
		for _, tech := range []core.Technique{core.PreCopy, core.PostCopy, core.Agile} {
			r := cell(wk, tech)
			v := -1.0
			if r.Migration != nil {
				v = float64(r.Migration.BytesTransferred) / 1e6
			}
			fmt.Fprintf(w, " %s (%.0f) |", scaled(v, opt.Scale), paperTable["tableIII-"+name[wk]][tech])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	// Shape checks on the cells, in the table's units.
	y := func(t core.Technique) *experiments.AppPerfResult { return cell(experiments.WorkloadYCSB, t) }
	s := func(t core.Technique) *experiments.AppPerfResult { return cell(experiments.WorkloadSysbench, t) }
	ops := func(r *experiments.AppPerfResult) float64 { return r.AvgOpsPerSec }
	secs := func(r *experiments.AppPerfResult) float64 { return r.Migration.TotalSeconds / opt.Scale }
	mb := func(r *experiments.AppPerfResult) float64 {
		return float64(r.Migration.BytesTransferred) / 1e6 / opt.Scale
	}
	// rowDetail prints one table row as "agile / post / pre".
	rowDetail := func(at func(core.Technique) *experiments.AppPerfResult, v func(*experiments.AppPerfResult) float64) string {
		return fmt.Sprintf("%.1f / %.1f / %.1f", v(at(core.Agile)), v(at(core.PostCopy)), v(at(core.PreCopy)))
	}
	fmt.Fprintf(w, "* Table I: Agile best for both workloads: %s\n", check(
		ops(y(core.Agile)) >= ops(y(core.PostCopy)) && ops(y(core.Agile)) >= ops(y(core.PreCopy)) &&
			ops(s(core.Agile)) >= ops(s(core.PostCopy)) && ops(s(core.Agile)) >= ops(s(core.PreCopy)),
		fmt.Sprintf("agile / post / pre: ycsb %s ops/s; sysbench %s trans/s",
			rowDetail(y, ops), rowDetail(s, ops))))
	fmt.Fprintf(w, "* Table II: Agile fastest, pre-copy slowest for YCSB: %s\n", check(
		secs(y(core.Agile)) < secs(y(core.PostCopy)) && secs(y(core.PostCopy)) < secs(y(core.PreCopy)),
		fmt.Sprintf("agile / post / pre: %s s (×%.0f)", rowDetail(y, secs), 1/opt.Scale)))
	fmt.Fprintf(w, "* Table III: Agile transfers least in both rows: %s\n\n", check(
		mb(y(core.Agile)) < mb(y(core.PostCopy)) && mb(y(core.Agile)) < mb(y(core.PreCopy)) &&
			mb(s(core.Agile)) < mb(s(core.PostCopy)) && mb(s(core.Agile)) < mb(s(core.PreCopy)),
		fmt.Sprintf("agile / post / pre: ycsb %s MB; sysbench %s MB (×%.0f)",
			rowDetail(y, mb), rowDetail(s, mb), 1/opt.Scale)))
}

func wssSection(w io.Writer, opt Options) {
	fmt.Fprintf(w, "## Figures 9–10: transparent WSS tracking\n\n")
	cfg := experiments.DefaultWSSTrackConfig()
	cfg.Scale = opt.Scale
	cfg.Seed = opt.Seed
	r := experiments.RunWSSTracking(cfg)
	fmt.Fprintf(w, "* Working set (dataset): %.0f MB; converged reservation: %.0f MB; stable: %v\n",
		r.DatasetMB, r.FinalReservationMB, r.Stable)
	fmt.Fprintf(w, "* Reservation ≈ working set: %s\n", check(
		r.FinalReservationMB >= 0.7*r.DatasetMB && r.FinalReservationMB <= 1.6*r.DatasetMB,
		fmt.Sprintf("%.0f MB vs %.0f MB", r.FinalReservationMB, r.DatasetMB)))
	fmt.Fprintf(w, "* Throughput recovers near peak after convergence: %s\n\n", check(
		r.MeanThroughputAfterConvergence >= 0.6*r.PeakThroughput,
		fmt.Sprintf("steady %.0f vs peak %.0f ops/s", r.MeanThroughputAfterConvergence, r.PeakThroughput)))
}

func ablationSection(w io.Writer, opt Options) {
	fmt.Fprintf(w, "## Ablations\n\n")
	push := experiments.RunAblationActivePush(opt.Scale, opt.Seed)
	fmt.Fprintf(w, "* Demand-only transfer unbounded (§III): %s\n", check(
		!push.WithoutPushCompleted && push.WithoutPushResidualPages > 0,
		fmt.Sprintf("with push %.1f s; without: incomplete, %d pages still source-bound",
			push.WithPushSeconds, push.WithoutPushResidualPages)))
	remote := experiments.RunAblationRemoteSwap(opt.Scale, opt.Seed, opt.Parallelism)
	fmt.Fprintf(w, "* Remote per-VM swap is the win (vs VMware-style local swap): %s\n", check(
		remote.NoRemoteDone && remote.NoRemoteMB > remote.AgileMB && remote.NoRemoteSecs > remote.AgileSeconds,
		fmt.Sprintf("agile %.1f s/%.0f MB vs no-remote %.1f s/%.0f MB",
			remote.AgileSeconds, remote.AgileMB, remote.NoRemoteSecs, remote.NoRemoteMB)))
	placement := experiments.RunAblationPlacement(opt.Seed, opt.Parallelism)
	fmt.Fprintf(w, "* Load-aware placement avoids NACK retries: %s\n", check(
		placement.BlindRetries > placement.LoadAwareRetries,
		fmt.Sprintf("load-aware %d vs blind %d retries", placement.LoadAwareRetries, placement.BlindRetries)))
	auto := experiments.RunAblationAutoConverge(opt.Scale, opt.Seed, opt.Parallelism)
	converged := auto.ThrottledSeconds < auto.BaselineSeconds || auto.ThrottledRounds < auto.BaselineRounds
	fmt.Fprintf(w, "* Auto-converge (SDPS) trades throughput for convergence (§VI): %s\n", check(
		auto.ThrottleEvents > 0 && auto.ThrottledOpsRate < auto.BaselineOpsRate && converged,
		fmt.Sprintf("%.0f → %.0f ops/s during migration; %.1f → %.1f s, %d → %d rounds",
			auto.BaselineOpsRate, auto.ThrottledOpsRate, auto.BaselineSeconds, auto.ThrottledSeconds,
			auto.BaselineRounds, auto.ThrottledRounds)))
	evict := experiments.RunScatterEviction(opt.Scale, opt.Seed)
	var sg, ag float64
	for _, r := range evict {
		switch r.Technique {
		case core.ScatterGather:
			sg = r.EvictSeconds
		case core.Agile:
			ag = r.EvictSeconds
		}
	}
	fmt.Fprintf(w, "* Scatter-gather evicts fastest with a constrained destination: %s\n\n", check(
		sg > 0 && sg < ag,
		fmt.Sprintf("scatter-gather %.1f s vs agile %.1f s", sg, ag)))
}

// scaled renders a value multiplied up to paper scale, or "-" if missing.
func scaled(v, scale float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v/scale)
}
