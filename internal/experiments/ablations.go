package experiments

import (
	"fmt"
	"io"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
	"agilemig/internal/dist"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
	"agilemig/internal/vmd"
	"agilemig/internal/wss"
)

// The ablations quantify the design choices DESIGN.md calls out: active
// push vs demand-only, remote-accessible per-VM swap vs host-local swap,
// load-aware vs blind VMD placement, and watermark-gap sensitivity.

// ablationScenario builds the shared single-VM pressure scenario.
func ablationScenario(scale float64, seed uint64) (*cluster.Testbed, *cluster.VMHandle) {
	tcfg := cluster.DefaultConfig()
	tcfg.Seed = seed
	tcfg.HostRAMBytes = scaleBytes(6*cluster.GiB, scale)
	tcfg.IntermediateRAMBytes = scaleBytes(32*cluster.GiB, scale)
	tb := cluster.New(tcfg)
	memB := scaleBytes(8*cluster.GiB, scale)
	resv := scaleBytes(4*cluster.GiB, scale)
	h := tb.DeployVM("vm", memB, resv, true)
	h.LoadDataset(scaleBytes(7*cluster.GiB, scale))
	ccfg := ycsbClient()
	ccfg.MaxOpsPerSecond = 10_000
	h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))
	tb.RunSeconds(scaleSeconds(200, scale))
	return tb, h
}

// AblationPushResult compares Agile with and without active push.
type AblationPushResult struct {
	// WithPush completed normally.
	WithPushSeconds float64
	// WithoutPushCompleted is false by construction (the paper: relying
	// solely on demand paging takes an unbounded amount of time).
	WithoutPushCompleted bool
	// WithoutPushResidualPages is how many pages still depend on the
	// source after observing for the same window Agile-with-push needed.
	WithoutPushResidualPages int
	// WithoutPushDemandServed is how many pages demand paging moved in
	// that window.
	WithoutPushDemandServed int64
}

// RunAblationActivePush measures why active push exists (§III: "transferring
// all dirty pages from the source host would take an unbounded amount of
// time"). The two runs stay serial by design: the demand-only run's
// observation window is sized from the with-push run's completion time.
func RunAblationActivePush(scale float64, seed uint64) *AblationPushResult {
	res := &AblationPushResult{}

	tb, h := ablationScenario(scale, seed)
	mustMigrate(tb, h, core.Agile, tb.Dest, scaleBytes(4*cluster.GiB, scale), core.Tuning{})
	if tb.RunUntilMigrated(h, scaleSeconds(4000, scale)) == cluster.OutcomeCompleted {
		res.WithPushSeconds = h.Result.TotalSeconds
	}

	tb2, h2 := ablationScenario(scale, seed)
	mig := mustMigrate(tb2, h2, core.Agile, tb2.Dest, scaleBytes(4*cluster.GiB, scale),
		core.Tuning{DisableActivePush: true})
	// Observe for double the with-push window.
	tb2.RunSeconds(res.WithPushSeconds*2 + scaleSeconds(60, scale))
	res.WithoutPushCompleted = mig.Done()
	res.WithoutPushDemandServed = mig.Result().PagesDemandServed
	// Residual: pages the destination still cannot resolve locally.
	t := h2.VM.Table()
	residual := 0
	t.ForEach(func(p mem.PageID, s mem.PageState) {
		if s == mem.StateUntouched {
			residual++
		}
	})
	// Untouched at the destination includes genuinely-zero pages; subtract
	// nothing — the comparison is qualitative (a large residual remains).
	res.WithoutPushResidualPages = residual
	return res
}

// AblationRemoteSwapResult compares Agile against the same hybrid without
// a destination-reachable swap device (the VMware-style configuration:
// cold pages must be swapped in at the source and transferred).
type AblationRemoteSwapResult struct {
	AgileSeconds float64
	AgileMB      float64
	NoRemoteSecs float64
	NoRemoteMB   float64
	// NoRemoteOutcome is the full verdict for the no-remote-swap half; a
	// run that printed completed=false used to be unattributable between
	// an abort and a timeout.
	NoRemoteOutcome cluster.Outcome
	NoRemoteDone    bool
	AgileOffsetRec  int64
}

// RunAblationRemoteSwap quantifies the per-VM remote swap device's
// contribution to Agile's speed. The two configurations build independent
// testbeds, so they fan out across workers (0 or omitted = all cores,
// 1 = serial).
func RunAblationRemoteSwap(scale float64, seed uint64, parallelism ...int) *AblationRemoteSwapResult {
	res := &AblationRemoteSwapResult{}
	halves := runPoints(par(parallelism), 2, func(i int) *AblationRemoteSwapResult {
		half := &AblationRemoteSwapResult{}
		if i == 0 {
			tb, h := ablationScenario(scale, seed)
			mustMigrate(tb, h, core.Agile, tb.Dest, scaleBytes(4*cluster.GiB, scale), core.Tuning{})
			if tb.RunUntilMigrated(h, scaleSeconds(4000, scale)) == cluster.OutcomeCompleted {
				half.AgileSeconds = h.Result.TotalSeconds
				half.AgileMB = float64(h.Result.BytesTransferred) / 1e6
				half.AgileOffsetRec = h.Result.OffsetRecords
			}
			return half
		}
		tb2, h2 := ablationScenario(scale, seed)
		mustMigrate(tb2, h2, core.Agile, tb2.Dest, scaleBytes(4*cluster.GiB, scale),
			core.Tuning{NoRemoteSwap: true})
		half.NoRemoteOutcome = tb2.RunUntilMigrated(h2, scaleSeconds(8000, scale))
		//lint:outcomecheck derived view; the full verdict stays in NoRemoteOutcome
		half.NoRemoteDone = half.NoRemoteOutcome == cluster.OutcomeCompleted
		if h2.Result != nil {
			half.NoRemoteSecs = h2.Result.TotalSeconds
			half.NoRemoteMB = float64(h2.Result.BytesTransferred) / 1e6
		}
		return half
	})
	res.AgileSeconds = halves[0].AgileSeconds
	res.AgileMB = halves[0].AgileMB
	res.AgileOffsetRec = halves[0].AgileOffsetRec
	res.NoRemoteOutcome = halves[1].NoRemoteOutcome
	res.NoRemoteDone = halves[1].NoRemoteDone
	res.NoRemoteSecs = halves[1].NoRemoteSecs
	res.NoRemoteMB = halves[1].NoRemoteMB
	return res
}

// AblationAutoConvergeResult compares pre-copy with and without
// SDPS-style vCPU throttling on a write-heavy VM (§VI: throttling speeds
// the migration but costs application throughput).
type AblationAutoConvergeResult struct {
	BaselineSeconds  float64
	BaselineRounds   int
	BaselineOpsRate  float64 // client ops/s during the migration
	ThrottledSeconds float64
	ThrottledRounds  int
	ThrottledOpsRate float64
	ThrottleEvents   int
}

// RunAblationAutoConverge runs a dirty-intensive pre-copy twice — the two
// runs are independent scenarios and fan out across workers.
func RunAblationAutoConverge(scale float64, seed uint64, parallelism ...int) *AblationAutoConvergeResult {
	run := func(auto bool) (secs float64, rounds int, opsRate float64, throttles int) {
		tcfg := cluster.DefaultConfig()
		tcfg.Seed = seed
		tcfg.HostRAMBytes = scaleBytes(8*cluster.GiB, scale)
		tb := cluster.New(tcfg)
		h := tb.DeployVM("vm", scaleBytes(4*cluster.GiB, scale), scaleBytes(4*cluster.GiB, scale), false)
		h.LoadDataset(scaleBytes(3*cluster.GiB, scale))
		ccfg := ycsbClient()
		// Write-heavy: dirty both touched pages per op so rounds refuse to
		// converge without throttling.
		ccfg.WritePagesDirtied = 2
		ccfg.MaxOpsPerSecond = 25_000
		h.AttachClient(ccfg, dist.NewUniform(h.Store.Records()))
		tb.RunSeconds(scaleSeconds(60, scale))
		opsBefore := h.Client.OpsCompleted()
		t0 := tb.Eng.NowSeconds()
		tun := core.Tuning{}
		if auto {
			tun.AutoConverge = true
		}
		mustMigrate(tb, h, core.PreCopy, tb.Dest, scaleBytes(4*cluster.GiB, scale), tun)
		done := tb.RunUntilMigrated(h, scaleSeconds(4000, scale))
		elapsed := tb.Eng.NowSeconds() - t0
		rate := float64(h.Client.OpsCompleted()-opsBefore) / elapsed
		if done != cluster.OutcomeCompleted || h.Result == nil {
			return elapsed, -1, rate, 0
		}
		return h.Result.TotalSeconds, h.Result.Rounds, rate, h.Result.ThrottleEvents
	}
	type converge struct {
		secs      float64
		rounds    int
		opsRate   float64
		throttles int
	}
	runs := runPoints(par(parallelism), 2, func(i int) converge {
		var c converge
		c.secs, c.rounds, c.opsRate, c.throttles = run(i == 1)
		return c
	})
	res := &AblationAutoConvergeResult{}
	res.BaselineSeconds, res.BaselineRounds, res.BaselineOpsRate = runs[0].secs, runs[0].rounds, runs[0].opsRate
	res.ThrottledSeconds, res.ThrottledRounds, res.ThrottledOpsRate = runs[1].secs, runs[1].rounds, runs[1].opsRate
	res.ThrottleEvents = runs[1].throttles
	return res
}

// AblationPlacementResult compares VMD placement policies when one server
// in the pool is nearly full.
type AblationPlacementResult struct {
	LoadAwareRetries int64
	BlindRetries     int64
	LoadAwareRejects int64
	BlindRejects     int64
}

// RunAblationPlacement writes a burst of pages into a pool with one
// nearly-full server under both policies and counts wasted round trips.
// The two policies run on independent engines and fan out across workers.
func RunAblationPlacement(seed uint64, parallelism ...int) *AblationPlacementResult {
	run := func(loadAware bool) (retries, rejects int64) {
		eng := sim.NewEngine(seed)
		net := simnet.New(eng)
		v := vmd.New(eng, net)
		small := v.AddServer("small", net.NewNIC("i0", cluster.GbpsBytes), 64)
		var servers []*vmd.Server
		for i := 1; i <= 3; i++ {
			servers = append(servers, v.AddServer(fmt.Sprintf("s%d", i), net.NewNIC("i", cluster.GbpsBytes), 1<<20))
		}
		c := v.NewClient("host", net.NewNIC("h", cluster.GbpsBytes), 0)
		c.SetLoadAware(loadAware)
		ns := v.CreateNamespace("vm", 1<<16)
		ns.AttachTo(c)
		done := 0
		for i := 0; i < 4096; i++ {
			ns.Write(c, uint32(i), func() { done++ })
		}
		eng.RunSeconds(60)
		if done != 4096 {
			panic("ablation: writes incomplete")
		}
		_, _, retried := c.Stats()
		_, _, rej := small.Stats()
		var rejTotal int64 = rej
		for _, s := range servers {
			_, _, r := s.Stats()
			rejTotal += r
		}
		return retried, rejTotal
	}
	type policy struct{ retries, rejects int64 }
	runs := runPoints(par(parallelism), 2, func(i int) policy {
		var p policy
		p.retries, p.rejects = run(i == 0)
		return p
	})
	res := &AblationPlacementResult{}
	res.LoadAwareRetries, res.LoadAwareRejects = runs[0].retries, runs[0].rejects
	res.BlindRetries, res.BlindRejects = runs[1].retries, runs[1].rejects
	return res
}

// AblationWatermarkRow is one watermark-gap sensitivity point.
type AblationWatermarkRow struct {
	GapBytes int64
	Fired    int64
	Migrated int
}

// RunAblationWatermark replays the same rising-and-falling aggregate WSS
// signal against triggers with different high/low gaps and counts how many
// migration events each gap produces: a narrow gap migrates fewer VMs per
// event but fires more often. Each gap point runs on its own engine, so the
// points fan out across workers.
func RunAblationWatermark(seed uint64, parallelism ...int) []AblationWatermarkRow {
	gaps := []int64{1 * cluster.GiB, 3 * cluster.GiB, 6 * cluster.GiB}
	return runPoints(par(parallelism), len(gaps), func(i int) AblationWatermarkRow {
		gap := gaps[i]
		eng := sim.NewEngine(seed)
		high := int64(20 * cluster.GiB)
		low := high - gap
		// Synthetic fleet: 6 VMs whose working sets breathe over time.
		wssOf := make(map[string]int64)
		for i := 0; i < 6; i++ {
			wssOf[fmt.Sprintf("vm%d", i)] = 2 * cluster.GiB
		}
		migrated := 0
		var fired *wss.Trigger
		fired = wss.NewTrigger(eng, wss.TriggerConfig{
			HighWatermarkBytes: high, LowWatermarkBytes: low, CheckInterval: 1,
		}, func() map[string]int64 {
			return wssOf
		}, func(names []string) {
			migrated += len(names)
			for _, n := range names {
				// The migrated VM leaves this host.
				delete(wssOf, n)
			}
		})
		// Load grows every 10 s; departed VMs are replaced by fresh small
		// ones (consolidation continues).
		step := 0
		eng.Every(eng.SecondsToTicks(10), func(sim.Time) bool {
			step++
			for n := range wssOf {
				wssOf[n] += 512 * cluster.MiB
			}
			if len(wssOf) < 6 {
				wssOf[fmt.Sprintf("new%d", step)] = 1 * cluster.GiB
			}
			return step < 60
		})
		eng.RunSeconds(620)
		return AblationWatermarkRow{GapBytes: gap, Fired: fired.Fired(), Migrated: migrated}
	})
}

// PrintAutoConverge renders the auto-converge ablation.
func PrintAutoConverge(w io.Writer, r *AblationAutoConvergeResult) {
	fmt.Fprintln(w, "Ablation: SDPS-style auto-converge on a write-heavy pre-copy")
	fmt.Fprintf(w, "  baseline:  %.1fs over %d rounds, %.0f ops/s during migration\n",
		r.BaselineSeconds, r.BaselineRounds, r.BaselineOpsRate)
	fmt.Fprintf(w, "  throttled: %.1fs over %d rounds, %.0f ops/s during migration (%d throttle events)\n",
		r.ThrottledSeconds, r.ThrottledRounds, r.ThrottledOpsRate, r.ThrottleEvents)
	fmt.Fprintln(w, "  (faster convergence, worse application performance — §VI's critique)")
	fmt.Fprintln(w)
}

// PrintAblations renders all ablation results.
func PrintAblations(w io.Writer, push *AblationPushResult, remote *AblationRemoteSwapResult,
	placement *AblationPlacementResult, watermark []AblationWatermarkRow) {
	fmt.Fprintln(w, "Ablation: active push")
	fmt.Fprintf(w, "  with push: completed in %.1fs\n", push.WithPushSeconds)
	fmt.Fprintf(w, "  demand-only: completed=%v after 2x that window; %d pages still source-dependent; %d pages moved by demand\n\n",
		push.WithoutPushCompleted, push.WithoutPushResidualPages, push.WithoutPushDemandServed)

	fmt.Fprintln(w, "Ablation: destination-reachable per-VM swap (VMD)")
	fmt.Fprintf(w, "  agile:           %.1fs, %.0f MB (%d cold pages by reference)\n",
		remote.AgileSeconds, remote.AgileMB, remote.AgileOffsetRec)
	fmt.Fprintf(w, "  no remote swap:  %.1fs, %.0f MB (completed=%v)\n\n",
		remote.NoRemoteSecs, remote.NoRemoteMB, remote.NoRemoteDone)

	fmt.Fprintln(w, "Ablation: VMD placement policy (one nearly-full server)")
	fmt.Fprintf(w, "  load-aware RR: %d retries, %d rejects\n", placement.LoadAwareRetries, placement.LoadAwareRejects)
	fmt.Fprintf(w, "  blind RR:      %d retries, %d rejects\n\n", placement.BlindRetries, placement.BlindRejects)

	fmt.Fprintln(w, "Ablation: watermark gap sensitivity")
	for _, r := range watermark {
		fmt.Fprintf(w, "  gap %2d GiB: trigger fired %d times, %d VMs migrated\n",
			r.GapBytes/cluster.GiB, r.Fired, r.Migrated)
	}
}
