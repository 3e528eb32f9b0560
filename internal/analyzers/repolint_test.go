package analyzers_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean runs the full agilelint suite over the whole
// repository, exactly as CI's lint job does. Any violation — say, a
// time.Now() introduced into internal/core, or an unsorted
// state-mutating map range in internal/vmd — fails this test with the
// offending file:line in the output.
func TestRepoIsLintClean(t *testing.T) {
	goTool, root := lintPrereqs(t)
	cmd := exec.Command(goTool, "run", "./cmd/agilelint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Errorf("agilelint reported violations (or failed to run): %v\n%s", err, out)
	}
}

// TestRepoLintCatchesPlants is the negative control for the clean sweep
// above: it plants a compilable PR-9-class bug into a real package, runs
// agilelint scoped to that package, and demands the named analyzer
// rejects it. A suite that silently stopped analyzing (an analyzer
// dropped from All(), a CFG builder returning empty graphs) passes the
// clean sweep — only this test notices.
func TestRepoLintCatchesPlants(t *testing.T) {
	goTool, root := lintPrereqs(t)

	for _, tc := range []struct {
		name    string   // subtest + analyzer that must fire
		pkg     string   // package dir (repo-relative) to plant into and lint
		source  string   // compilable non-test plant
		wantMsg []string // fragments that must appear in the output
	}{
		{
			name: "phasecheck",
			pkg:  "internal/ctlplane",
			source: `package ctlplane

// Planted by TestRepoLintCatchesPlants; removed on test exit.
func zzPlantIllegalTransition(m *Migration) {
	if m.Status.Phase == PhasePending {
		m.Status.Phase = PhaseRunning
	}
}
`,
			wantMsg: []string{"phasecheck", "illegal phase transition PhasePending -> PhaseRunning"},
		},
		{
			name: "outcomecheck",
			pkg:  "internal/experiments",
			source: `package experiments

import (
	"agilemig/internal/cluster"
	"agilemig/internal/core"
)

// Planted by TestRepoLintCatchesPlants; removed on test exit.
func zzPlantDiscardedMigrate(tb *cluster.Testbed, h *cluster.VMHandle) {
	tb.Migrate(h, core.Agile, tb.Dest, 0, core.Tuning{})
}
`,
			wantMsg: []string{"outcomecheck", "Migrate's error is the admission verdict"},
		},
		{
			name: "dettaint",
			pkg:  "internal/experiments",
			source: `package experiments

import (
	. "math/rand"
)

// Planted by TestRepoLintCatchesPlants; removed on test exit. The dot
// import hides the entropy source from detrand's selector scan — only
// dettaint's flow analysis sees the closure land in package state.
var zzPlantStamp func() int

func zzPlantArm() {
	f := func() int { return Intn(1000) }
	zzPlantStamp = f
}
`,
			wantMsg: []string{"dettaint", "stored in package-level var zzPlantStamp"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plant := filepath.Join(root, filepath.FromSlash(tc.pkg), "zz_lintplant.go")
			if err := os.WriteFile(plant, []byte(tc.source), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Remove(plant) })

			cmd := exec.Command(goTool, "run", "./cmd/agilelint", "./"+tc.pkg)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("agilelint accepted the planted %s bug:\n%s", tc.name, out)
			}
			for _, frag := range tc.wantMsg {
				if !strings.Contains(string(out), frag) {
					t.Errorf("agilelint output missing %q:\n%s", frag, out)
				}
			}
		})
	}
}

func lintPrereqs(t *testing.T) (goTool, root string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	root, err = filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return goTool, root
}
