// Command agilebench is the simulator's benchmark. It runs one named
// migration workload for a fixed wall-clock budget and prints the
// end-to-end metrics a user of the simulator waits for (host set-up and
// migration time, peak memory, allocation), or with -trace 1 the metrics
// of each simulator layer, as one JSON line. README.md describes the
// workloads and what each metric should respond to.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash cmd/agilebench/run.sh -workload agile_cold -seed 1 -seconds 25 -trace 0
//
// Every repetition of a workload runs in its own child process, so each
// repetition's peak RSS and allocation belong to it alone.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"agilemig/internal/cluster"
	"agilemig/internal/core"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	spans    string
	child    bool
}

func parse(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("agilebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on every memory size and simulated duration")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced runs write their spans to")
	fs.BoolVar(&o.child, "child", false, "run one repetition and print its record (internal)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.scale <= 0 || o.seconds <= 0 {
		return o, fmt.Errorf("-scale and -seconds must be positive")
	}
	if _, err := newBench(o.workload, params{seed: o.seed, scale: o.scale}, nil); err != nil {
		return o, err
	}
	return o, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "agilebench:", err)
		return 2
	}
	// The GC policy agilesim applies, so the benchmark measures the
	// program users run.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	if o.child {
		rec, err := runIteration(o)
		if err != nil {
			fmt.Fprintln(stderr, "agilebench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rec); err != nil {
			fmt.Fprintln(stderr, "agilebench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "agilebench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]interface{}{"meta": res.meta}); err != nil {
		fmt.Fprintln(stderr, "agilebench:", err)
		return 1
	}
	if err := enc.Encode(res.line); err != nil {
		fmt.Fprintln(stderr, "agilebench:", err)
		return 1
	}
	return 0
}

// record is what one repetition reports to the parent.
type record struct {
	Traced bool
	// BuildS is constructors through the last AttachClient (or NewFleet);
	// WarmS the pre-migration warm-up; MigrateS the first submission
	// until every migration is terminal.
	BuildS, WarmS, MigrateS float64
	AllocMB                 float64
	WarmMallocs             uint64
	WarmOps                 int64
	MigrateMallocs          uint64
	Submitted, Succeeded    int
	Violations              []string
	// Digest covers every per-migration result, fleet row and count.
	Digest string
	// Counts are exact for a seed; Layers are timings and traced-only
	// samples.
	Counts map[string]float64
	Layers map[string]float64

	Results []core.Result      `json:"-"`
	Rows    []cluster.FleetRow `json:"-"`

	PeakRSSMB float64
	WallS     float64 `json:"-"` // filled in by the parent
}

func (r *record) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *record) setupS() float64 { return r.BuildS + r.WarmS }

// runIteration sets up and migrates the workload once in this process.
func runIteration(o options) (*record, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	b, err := newBench(o.workload, params{seed: o.seed, scale: o.scale}, tr)
	if err != nil {
		return nil, err
	}
	rec := &record{Traced: o.trace, Counts: map[string]float64{}, Layers: map[string]float64{}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	var root, sp int
	if tr != nil {
		root = tr.begin("run "+o.workload, 0)
		sp = tr.begin("setup.build", root)
	}
	t0 := time.Now()
	b.build()
	rec.BuildS = time.Since(t0).Seconds()
	if tr != nil {
		tr.end(sp)
		sp = tr.begin("setup.warm", root)
	}
	runtime.ReadMemStats(&ms)
	m1, ops1 := ms.Mallocs, b.ops()
	t1 := time.Now()
	b.warm()
	rec.WarmS = time.Since(t1).Seconds()
	if tr != nil {
		tr.end(sp)
		tr.migrate = tr.begin("migrate", root)
	}
	runtime.ReadMemStats(&ms)
	m2 := ms.Mallocs
	rec.WarmMallocs, rec.WarmOps = m2-m1, b.ops()-ops1
	t2 := time.Now()
	b.migrate()
	rec.MigrateS = time.Since(t2).Seconds()
	if tr != nil {
		tr.end(tr.migrate)
		tr.end(root)
	}
	runtime.ReadMemStats(&ms)
	rec.MigrateMallocs = ms.Mallocs - m2
	rec.AllocMB = float64(ms.TotalAlloc-alloc0) / 1e6

	b.collect(rec)
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if rec.Counts["vmd.lost_pages"] != 0 {
		rec.violate("vmd lost %v pages", rec.Counts["vmd.lost_pages"])
	}
	if rec.Counts["simnet.msgs_lost"] != 0 {
		rec.violate("simnet lost %v messages", rec.Counts["simnet.msgs_lost"])
	}
	sum, err := json.Marshal(struct {
		Results []core.Result
		Rows    []cluster.FleetRow
		Counts  map[string]float64
	}{rec.Results, rec.Rows, rec.Counts})
	if err != nil {
		return nil, err
	}
	h := sha256.Sum256(sum)
	rec.Digest = hex.EncodeToString(h[:8])

	if tr != nil {
		tracedLayers(tr, b, rec)
		if err := tr.writeSpans(o.spans, o.workload, runMeta(o)); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// tracedLayers fills the layer timings only the traced run measures.
func tracedLayers(tr *tracer, b bench, rec *record) {
	L := rec.Layers
	for ly := layer(0); ly < numLayers; ly++ {
		L[layerName[ly]+".phase_s"] = tr.layerSeconds(ly)
	}
	var steps, ticks, skip int64
	var h hist
	for _, l := range tr.lanes {
		steps += l.steps
		ticks += l.ticks
		skip += l.skip
		h.merge(&l.hist)
	}
	L["sim.steps"] = float64(steps)
	L["sim.ff_share"] = ratio(float64(skip), float64(ticks))
	L["sim.step_us_p50"] = h.quantileUS(0.50)
	L["sim.step_us_p99"] = h.quantileUS(0.99)
	if tb, ok := b.(*testbedBench); ok {
		if tb.policy != nil {
			L["ctlplane.place_us"] = tb.policy.seconds * 1e6
		}
		L["ctlplane.launch_ms"] = tb.shim.launchS * 1e3
		L["core.migration_s_p50"] = median(tb.shim.perMigS)
	}
}

// runMeta is the run metadata stamped into every result.
func runMeta(o options) map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "800"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]string{
		"workload":   o.workload,
		"seed":       strconv.FormatUint(o.seed, 10),
		"scale":      strconv.FormatFloat(o.scale, 'g', -1, 64),
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"gogc":       gogc,
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runChild runs one repetition in a fresh process and reads back its
// record and peak resident memory.
func runChild(o options, traced bool, stderr io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child",
		"-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
		"-spans", o.spans)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", o.workload, err)
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("%s repetition: bad record: %w", o.workload, err)
	}
	rec.WallS = time.Since(t0).Seconds()
	return &rec, nil
}

// peakRSSMB reads this process's peak resident set (VmHWM). The
// parent's ru_maxrss for the child would not do: Linux charges the
// resident set of the address space a child leaves at exec, which with
// os/exec's vfork-style start is the parent's own, to the child.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
