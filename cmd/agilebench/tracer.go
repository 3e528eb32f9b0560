package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"agilemig/internal/sim"
)

// The traced run times calls into each layer from outside the program:
// one marker ticker is appended at the end of each engine phase, and the
// wall-clock gap between consecutive markers is charged to the layer that
// owns the phase. Markers report (sim.Never, true) as their idle hint, so
// they never block fast-forward and change no simulated result.

type layer int

const (
	layerCore layer = iota
	layerWorkload
	layerCgroup
	layerBlockdev
	layerSimnet
	numLayers
)

var layerPhase = [numLayers]sim.Phase{
	sim.PhaseControl, sim.PhaseWorkload, sim.PhaseMemory, sim.PhaseDevice, sim.PhaseNetwork,
}

var layerName = [numLayers]string{"core", "workload", "cgroup", "blockdev", "simnet"}

// lane accumulates one engine's marker times: the testbed's engine, or
// one shard engine of the fleet.
type lane struct {
	// driven lanes have each step bracketed by the benchmark's own
	// Advance loop; shard lanes are stepped by the ShardGroup, so the gap
	// before their first marker (events, idle scan, barrier wait) counts
	// as waiting.
	driven bool

	last      time.Time // wall time of the previous mark on this engine
	stepStart time.Time
	prevNow   sim.Time

	self  [numLayers]time.Duration
	busy  time.Duration // shard lanes: first marker to last marker of each step
	steps int64
	ticks int64
	skip  int64 // ticks jumped over by fast-forward
	hist  hist

	// sample runs at every memory marker (the cgroup throttled-queue
	// high-water sampler).
	sample func()
}

func (l *lane) mark(ly layer, now sim.Time) {
	t := time.Now()
	if ly == layerCore && now != l.prevNow {
		// First control marker of a new step.
		l.steps++
		l.ticks += int64(now - l.prevNow)
		l.skip += int64(now-l.prevNow) - 1
		l.prevNow = now
		if !l.driven {
			l.last, l.stepStart = t, t
			return
		}
	}
	l.self[ly] += t.Sub(l.last)
	l.last = t
	if ly == layerCgroup && l.sample != nil {
		l.sample()
	}
}

// endOfStep runs at the metrics-phase marker of shard lanes.
func (l *lane) endOfStep() {
	t := time.Now()
	d := t.Sub(l.stepStart)
	l.busy += d
	l.hist.add(d)
	l.last = t
}

// span is one timed interval of the traced run, kept in memory and written
// out when the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer owns every lane and span of one traced run.
type tracer struct {
	origin  time.Time
	lanes   []*lane
	spans   []span
	migrate int // the span the per-migration spans belong to
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func never(sim.Time) (sim.Time, bool) { return sim.Never, true }

// attach registers a lane's markers on eng.
func (t *tracer) attach(eng *sim.Engine, driven bool) *lane {
	l := &lane{driven: driven, last: time.Now(), prevNow: eng.Now()}
	t.lanes = append(t.lanes, l)
	t.appendMarkers(eng, l)
	return l
}

// appendMarkers (re-)appends the lane's markers, so that tickers added
// since the last call (a migration's control ticker, its destination
// cgroup) run before the marker of their own phase.
func (t *tracer) appendMarkers(eng *sim.Engine, l *lane) {
	for ly := layer(0); ly < numLayers; ly++ {
		ly := ly
		eng.AddTickerFuncHinted(layerPhase[ly], func(now sim.Time) { l.mark(ly, now) }, never)
	}
	if !l.driven {
		eng.AddTickerFuncHinted(sim.PhaseMetrics, func(sim.Time) { l.endOfStep() }, never)
	}
}

// advance steps a driven lane's engine toward until exactly as
// sim.Engine.Run does, stopping early once done reports true.
func advance(eng *sim.Engine, l *lane, until sim.Time, done func() bool) {
	for eng.Now() < until && !eng.Stopped() && (done == nil || !done()) {
		if l == nil {
			eng.Advance(until)
			continue
		}
		t0 := time.Now()
		l.last = t0
		eng.Advance(until)
		l.hist.add(time.Since(t0))
	}
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = time.Since(t.origin).Nanoseconds() }

func (t *tracer) spanSeconds(id int) float64 {
	s := t.spans[id-1]
	return float64(s.EndNS-s.StartNS) / 1e9
}

// writeSpans writes the run's spans as JSON lines under dir, headed by the
// run metadata.
func (t *tracer) writeSpans(dir, workloadName string, meta map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%s.jsonl", workloadName, meta["seed"])))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]interface{}{"meta": meta}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerSeconds sums one layer's self time over every lane.
func (t *tracer) layerSeconds(ly layer) float64 {
	var d time.Duration
	for _, l := range t.lanes {
		d += l.self[ly]
	}
	return d.Seconds()
}

// hist is a log-linear histogram of durations: exact below 32 ns, then 16
// buckets per power of two (about 6% resolution).
type hist struct {
	n     [1024]int64
	count int64
}

func bucketOf(ns uint64) int {
	if ns < 32 {
		return int(ns)
	}
	e := bits.Len64(ns) - 5
	return 16*e + int(ns>>uint(e))
}

func bucketMid(b int) float64 {
	if b < 32 {
		return float64(b)
	}
	e := b/16 - 1
	lo := uint64(b-16*e) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.n[bucketOf(uint64(d))]++
	h.count++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
	h.count += o.count
}

// quantileUS returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUS(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count-1))
	var seen int64
	for b, c := range h.n {
		seen += c
		if seen > rank {
			return bucketMid(b) / 1e3
		}
	}
	return 0
}
