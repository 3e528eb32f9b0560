package agilemig

import (
	"testing"
)

// TestQuickstartPath exercises the README's quick-start sequence through
// the public facade at a small scale.
func TestQuickstartPath(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.HostRAMBytes = 3 * GiB
	cfg.IntermediateRAMBytes = 8 * GiB
	tb := NewTestbed(cfg)

	vm := tb.DeployVM("demo", 1*GiB, 384*MiB, true)
	vm.LoadDataset(768 * MiB)
	tb.RunSeconds(60)

	if _, err := tb.Migrate(vm, Agile, tb.Dest, 384*MiB, MigrationTuning{}); err != nil {
		t.Fatal(err)
	}
	if tb.RunUntilMigrated(vm, 1200) != OutcomeCompleted {
		t.Fatal("quickstart migration did not complete")
	}
	r := vm.Result
	if r.Technique != Agile {
		t.Fatalf("result technique %v", r.Technique)
	}
	if r.TotalSeconds <= 0 || r.BytesTransferred <= 0 {
		t.Fatalf("implausible result: %+v", r)
	}
	if r.OffsetRecords == 0 {
		t.Fatal("no cold pages travelled by reference despite overcommit")
	}
}

// TestFacadeHelpers checks the re-exported configuration helpers.
func TestFacadeHelpers(t *testing.T) {
	if YCSBClient().Name != "ycsb" || SysbenchClient().Name != "sysbench" {
		t.Fatal("client presets broken")
	}
	tc := DefaultTrackerConfig()
	if tc.Alpha != 0.95 || tc.Beta != 1.03 || tc.TauBytesPerSec != 4096 {
		t.Fatalf("paper tracker parameters wrong: %+v", tc)
	}
	picked := SelectVMsToMigrate(map[string]int64{"a": 4 * GiB, "b": 1 * GiB}, 2*GiB)
	if len(picked) != 1 || picked[0] != "a" {
		t.Fatalf("selection helper wrong: %v", picked)
	}
	for i, tech := range []Technique{PreCopy, PostCopy, Agile} {
		if int(tech) != i {
			t.Fatal("technique constants shifted")
		}
	}
}

// TestTechniqueComparison runs all three techniques through the facade on
// the same scenario and checks the paper's headline orderings end to end.
func TestTechniqueComparison(t *testing.T) {
	results := map[Technique]*MigrationResult{}
	for _, tech := range []Technique{PreCopy, PostCopy, Agile} {
		cfg := DefaultTestbedConfig()
		cfg.HostRAMBytes = 3 * GiB
		cfg.IntermediateRAMBytes = 8 * GiB
		tb := NewTestbed(cfg)
		vm := tb.DeployVM("demo", 2*GiB, 768*MiB, tech == Agile)
		vm.LoadDataset(1536 * MiB)
		tb.RunSeconds(120)
		if _, err := tb.Migrate(vm, tech, tb.Dest, 768*MiB, MigrationTuning{}); err != nil {
			t.Fatal(err)
		}
		if tb.RunUntilMigrated(vm, 4000) != OutcomeCompleted {
			t.Fatalf("%v did not complete", tech)
		}
		results[tech] = vm.Result
	}
	if !(results[Agile].TotalSeconds < results[PostCopy].TotalSeconds &&
		results[PostCopy].TotalSeconds < results[PreCopy].TotalSeconds) {
		t.Errorf("time ordering: pre %.1f post %.1f agile %.1f",
			results[PreCopy].TotalSeconds, results[PostCopy].TotalSeconds, results[Agile].TotalSeconds)
	}
	if results[Agile].BytesTransferred >= results[PostCopy].BytesTransferred {
		t.Errorf("agile bytes %d >= post %d",
			results[Agile].BytesTransferred, results[PostCopy].BytesTransferred)
	}
}

// TestDeterminism runs the same scenario twice and demands bit-identical
// results — the property the whole simulator is built around.
func TestDeterminism(t *testing.T) {
	run := func() *MigrationResult {
		cfg := DefaultTestbedConfig()
		cfg.HostRAMBytes = 3 * GiB
		cfg.IntermediateRAMBytes = 8 * GiB
		cfg.Seed = 12345
		tb := NewTestbed(cfg)
		vm := tb.DeployVM("demo", 1*GiB, 384*MiB, true)
		vm.LoadDataset(768 * MiB)
		c := YCSBClient()
		c.MaxOpsPerSecond = 5000
		// Clients draw from the engine's seeded RNG, so the whole run is
		// reproducible.
		tb.RunSeconds(60)
		if _, err := tb.Migrate(vm, Agile, tb.Dest, 384*MiB, MigrationTuning{}); err != nil {
			t.Fatal(err)
		}
		tb.RunUntilMigrated(vm, 1200)
		return vm.Result
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("migration incomplete")
	}
	if a.TotalSeconds != b.TotalSeconds ||
		a.BytesTransferred != b.BytesTransferred ||
		a.PagesSent != b.PagesSent ||
		a.OffsetRecords != b.OffsetRecords ||
		a.DowntimeSeconds != b.DowntimeSeconds {
		t.Fatalf("non-deterministic results:\n%v\n%v", a, b)
	}
}
