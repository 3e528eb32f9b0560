package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// measure re-executes its own binary with -child first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload so the self-test runs in seconds. The drain
// needs more: its hosts' fixed OS overhead must leave room for the VMs.
func tiny(workload string) float64 {
	if workload == "host_drain" {
		return 0.1
	}
	return 0.02
}

func run(t *testing.T, workload string, scale float64, trace bool) resultLine {
	t.Helper()
	o := options{workload: workload, seed: 1, seconds: 1e-3, trace: trace, scale: scale, spans: t.TempDir()}
	res, err := measure(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res.line
}

type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsShort runs every workload at a tiny size, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names with their units, that the traced and untraced runs agree on
// every simulated result, and that the predicted-no-change controls hold
// exactly.
func TestWorkloadsShort(t *testing.T) {
	c := readContract(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			e2e := run(t, w, tiny(w), false)
			layers := run(t, w, tiny(w), true)
			for _, l := range []resultLine{e2e, layers} {
				if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", l.Correct, l.Attempted, l.Failed)
				}
			}
			checkNames(t, e2e, c.EndToEnd)
			checkNames(t, layers, c.PerLayer)

			m := func(name string) float64 { return layers.Metrics[name].Value }
			if got := m("vmd.lost_pages") + m("simnet.msgs_lost"); got != 0 {
				t.Errorf("lost pages or messages: %v", got)
			}
			switch w {
			case "agile_cold":
				if m("blockdev.read_mb") != 0 || m("blockdev.write_mb") != 0 || m("vmd.pages_written") == 0 {
					t.Errorf("agile_cold must load the VMD and leave the SSD idle: blockdev %v/%v MB, vmd %v pages",
						m("blockdev.read_mb"), m("blockdev.write_mb"), m("vmd.pages_written"))
				}
			case "precopy_dirty":
				if m("vmd.pages_written") != 0 || m("vmd.pages_read") != 0 || m("blockdev.write_mb") == 0 {
					t.Errorf("precopy_dirty must load the SSD and leave the VMD idle: vmd %v/%v pages, blockdev %v MB",
						m("vmd.pages_written"), m("vmd.pages_read"), m("blockdev.write_mb"))
				}
			}
			if shard := m("sim.shard_busy_share") != 0; shard != (w == "fleet_evac") {
				t.Errorf("sim.shard_busy_share = %v", m("sim.shard_busy_share"))
			}
			if place := m("ctlplane.place_us") != 0; place != (w == "host_drain") {
				t.Errorf("ctlplane.place_us = %v", m("ctlplane.place_us"))
			}
		})
	}
}

func checkNames(t *testing.T, l resultLine, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(l.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(l.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := l.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not printed", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
}

// TestFiguresIndependentOfPreviousWorkload shows that a workload's
// allocation and peak memory do not depend on what ran before it in the
// same benchmark process: a larger workload in between leaves the
// figures where they were.
func TestFiguresIndependentOfPreviousWorkload(t *testing.T) {
	alone := run(t, "agile_cold", tiny("agile_cold"), false)
	big := run(t, "host_drain", 1, false)
	after := run(t, "agile_cold", tiny("agile_cold"), false)

	rss := func(l resultLine) float64 { return l.Metrics["peak_rss_mb"].Value }
	alloc := func(l resultLine) float64 { return l.Metrics["alloc_mb"].Value }
	if rss(big) < 1.5*rss(alone) {
		t.Fatalf("in-between workload too small to show a leak: %.1f MB vs %.1f MB", rss(big), rss(alone))
	}
	if d := alloc(after)/alloc(alone) - 1; d > 0.01 || d < -0.01 {
		t.Errorf("alloc_mb %.2f after another workload, %.2f alone", alloc(after), alloc(alone))
	}
	if d := rss(after)/rss(alone) - 1; d > 0.2 || d < -0.2 {
		t.Errorf("peak_rss_mb %.1f after another workload, %.1f alone", rss(after), rss(alone))
	}
}
