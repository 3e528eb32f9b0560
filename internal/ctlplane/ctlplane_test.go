package ctlplane

import (
	"errors"
	"testing"

	"agilemig/internal/core"
	"agilemig/internal/sim"
)

// fakeHandle is a scripted data-plane migration.
type fakeHandle struct {
	switched bool
	done     bool
	aborted  bool
	onDone   func(*core.Result)
}

func (f *fakeHandle) Abort() bool {
	if f.switched || f.done {
		return false
	}
	f.done = true
	f.aborted = true
	f.onDone(&core.Result{Aborted: true})
	return true
}
func (f *fakeHandle) Switched() bool { return f.switched }
func (f *fakeHandle) Done() bool     { return f.done }

func (f *fakeHandle) complete() {
	f.switched = true
	f.done = true
	f.onDone(&core.Result{})
}

// fakeCluster is a scripted infrastructure layer.
type fakeCluster struct {
	hosts    []HostCapacity
	vmHost   map[string]string
	launched []*fakeHandle
	launches []string // "vm->dest" in launch order
	failNext error
}

func (f *fakeCluster) HostCapacities() []HostCapacity { return append([]HostCapacity(nil), f.hosts...) }

func (f *fakeCluster) VMHost(vm string) string { return f.vmHost[vm] }

func (f *fakeCluster) Launch(vm, dest string, _ core.Technique, _, _ int64, onDone func(*core.Result)) (Handle, error) {
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return nil, err
	}
	h := &fakeHandle{onDone: onDone}
	f.launched = append(f.launched, h)
	f.launches = append(f.launches, vm+"->"+dest)
	return h, nil
}

func newFake(vms int) *fakeCluster {
	f := &fakeCluster{
		hosts: []HostCapacity{
			{Name: "hosta", RAMBytes: 16 << 30, FreeReservationBytes: 12 << 30},
			{Name: "hostb", RAMBytes: 8 << 30, FreeReservationBytes: 6 << 30},
			{Name: "src", RAMBytes: 16 << 30, FreeReservationBytes: 1 << 30},
		},
		vmHost: map[string]string{},
	}
	for i := 0; i < vms; i++ {
		f.vmHost["vm"+string(rune('a'+i))] = "src"
	}
	return f
}

func spec(vm string) Spec {
	return Spec{VM: vm, Technique: core.Agile, DestReservationBytes: 1 << 30}
}

func TestPhaseMachineHappyPath(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	m := ctl.Submit(spec("vma"))
	if m.Status.Phase != PhasePending {
		t.Fatalf("after submit: %s", m.Status.Phase)
	}
	if m.Status.SubmittedAtSeconds < 0 || m.Status.StartedAtSeconds >= 0 {
		t.Fatal("bad initial timestamps")
	}
	eng.RunSeconds(1)
	if m.Status.Phase != PhaseRunning {
		t.Fatalf("after reconcile: %s", m.Status.Phase)
	}
	if m.Status.Dest != "hosta" {
		t.Fatalf("greedy picked %q, want hosta (largest free)", m.Status.Dest)
	}
	if m.Status.StartedAtSeconds < 0 {
		t.Fatal("StartedAt not stamped")
	}
	fc.launched[0].complete()
	if m.Status.Phase != PhaseSucceeded {
		t.Fatalf("after completion: %s", m.Status.Phase)
	}
	if !m.Status.Phase.Terminal() || m.Status.FinishedAtSeconds < 0 {
		t.Fatal("terminal bookkeeping missing")
	}
	if !ctl.Done() {
		t.Fatal("controller not done")
	}
}

func TestMaxConcurrentQueueing(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(5)
	ctl := NewController(eng, fc, Config{MaxConcurrent: 2, Policy: GreedyFreeRAM{}})
	for _, vm := range []string{"vma", "vmb", "vmc", "vmd", "vme"} {
		ctl.Submit(spec(vm))
	}
	eng.RunSeconds(1)
	n := ctl.Counts()
	if n.Running != 2 || n.Pending != 3 {
		t.Fatalf("got %d running / %d pending, want 2/3", n.Running, n.Pending)
	}
	// Admission is submission-ordered.
	if fc.launches[0] != "vma->hosta" {
		t.Fatalf("first launch %q", fc.launches[0])
	}
	fc.launched[0].complete()
	eng.RunSeconds(1)
	n = ctl.Counts()
	if n.Running != 2 || n.Pending != 2 || n.Succeeded != 1 {
		t.Fatalf("after one completion: %+v", n)
	}
	for i := 1; i < len(fc.launched); i++ {
		fc.launched[i].complete()
		eng.RunSeconds(1)
	}
	n = ctl.Counts()
	if n.Succeeded != 5 || !ctl.Done() {
		t.Fatalf("final: %+v", n)
	}
}

func TestLaunchRejectionFails(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	fc.failNext = errors.New("already mid-migration")
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	m := ctl.Submit(spec("vma"))
	eng.RunSeconds(1)
	if m.Status.Phase != PhaseFailed {
		t.Fatalf("got %s, want Failed", m.Status.Phase)
	}
	if m.Status.Reason != "already mid-migration" {
		t.Fatalf("reason %q", m.Status.Reason)
	}
}

func TestTimeoutAborts(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	sp := spec("vma")
	sp.TimeoutSeconds = 5
	m := ctl.Submit(sp)
	eng.RunSeconds(3)
	if m.Status.Phase != PhaseRunning {
		t.Fatalf("got %s, want Running", m.Status.Phase)
	}
	eng.RunSeconds(5)
	if m.Status.Phase != PhaseAborted {
		t.Fatalf("got %s, want Aborted", m.Status.Phase)
	}
	if m.Status.Reason == "" {
		t.Fatal("aborted without a reason")
	}
}

// TestOnTerminalFiresOncePerObject: the hook sees every object exactly
// once, after its finish time and result are set, whichever way it ends:
// completion, the switchover deadline, or a rejected launch.
func TestOnTerminalFiresOncePerObject(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(3)
	seen := map[string]int{}
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}, OnTerminal: func(m *Migration) {
		seen[m.Name]++
		if !m.Status.Phase.Terminal() || m.Status.FinishedAtSeconds < 0 {
			t.Errorf("%s reported in phase %s, finished at %v", m.Name, m.Status.Phase, m.Status.FinishedAtSeconds)
		}
		if m.Status.Phase != PhaseFailed && m.Status.Result == nil {
			t.Errorf("%s reported %s without its result", m.Name, m.Status.Phase)
		}
	}})
	ok := ctl.Submit(spec("vma"))
	late := spec("vmb")
	late.TimeoutSeconds = 5
	slow := ctl.Submit(late)
	eng.RunSeconds(1)
	fc.failNext = errors.New("no room")
	failed := ctl.Submit(spec("vmc"))
	eng.RunSeconds(1)
	fc.launched[0].complete()
	eng.RunSeconds(10) // vmb's deadline aborts it
	want := map[*Migration]Phase{ok: PhaseSucceeded, slow: PhaseAborted, failed: PhaseFailed}
	for m, phase := range want {
		if m.Status.Phase != phase || seen[m.Name] != 1 {
			t.Errorf("%s: phase %s, reported %d times; want %s, once", m.Name, m.Status.Phase, seen[m.Name], phase)
		}
	}
	if slow.Status.Reason != "no switchover within 5s; rolled back" {
		t.Errorf("deadline reason %q", slow.Status.Reason)
	}
}

func TestTimeoutSparesSwitchedMigration(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	sp := spec("vma")
	sp.TimeoutSeconds = 5
	m := ctl.Submit(sp)
	eng.RunSeconds(1)
	fc.launched[0].switched = true // past switchover: nothing to roll back
	eng.RunSeconds(10)
	if m.Status.Phase != PhaseRunning {
		t.Fatalf("deadline fired on a switched migration: %s", m.Status.Phase)
	}
	fc.launched[0].done = true
	fc.launched[0].onDone(&core.Result{})
	if m.Status.Phase != PhaseSucceeded {
		t.Fatalf("got %s", m.Status.Phase)
	}
}

func TestAbortPendingAndRunning(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(2)
	ctl := NewController(eng, fc, Config{MaxConcurrent: 1, Policy: GreedyFreeRAM{}})
	a := ctl.Submit(spec("vma"))
	b := ctl.Submit(spec("vmb"))
	eng.RunSeconds(1)
	if !ctl.Abort(b.Name, "operator cancel") {
		t.Fatal("abort of pending object refused")
	}
	if b.Status.Phase != PhaseAborted || b.Status.Reason != "operator cancel" {
		t.Fatalf("pending abort: %s (%s)", b.Status.Phase, b.Status.Reason)
	}
	if !ctl.Abort(a.Name, "operator cancel") {
		t.Fatal("abort of running object refused")
	}
	if a.Status.Phase != PhaseAborted {
		t.Fatalf("running abort: %s", a.Status.Phase)
	}
	if ctl.Abort(a.Name, "again") {
		t.Fatal("double abort succeeded")
	}
	if ctl.Abort("mig-unknown", "x") {
		t.Fatal("abort of unknown object succeeded")
	}
}

func TestPinnedAndAvoidedDestinations(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(2)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	pinned := spec("vma")
	pinned.DestHost = "hostb"
	mp := ctl.Submit(pinned)
	avoided := spec("vmb")
	avoided.AvoidHosts = []string{"hosta"}
	ma := ctl.Submit(avoided)
	eng.RunSeconds(1)
	if mp.Status.Dest != "hostb" {
		t.Fatalf("pin ignored: %q", mp.Status.Dest)
	}
	if ma.Status.Dest != "hostb" {
		t.Fatalf("avoid ignored: %q", ma.Status.Dest)
	}
}

func TestInfeasibleStaysPending(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	sp := spec("vma")
	sp.DestReservationBytes = 1 << 40 // larger than any host
	m := ctl.Submit(sp)
	eng.RunSeconds(1)
	if m.Status.Phase != PhasePending {
		t.Fatalf("got %s, want Pending", m.Status.Phase)
	}
	if m.Status.Reason == "" {
		t.Fatal("no reason recorded for the pending object")
	}
}

func TestDuplicateSubmitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("resubmitting a live name did not panic")
		}
	}()
	eng := sim.NewEngine(1)
	ctl := NewController(eng, newFake(1), Config{Policy: GreedyFreeRAM{}})
	ctl.Submit(spec("vma"))
	ctl.Submit(spec("vma"))
}

// TestSameVMSpecsQueue: two specs for one VM must serialize — the second
// waits Pending while the first is live, then launches after it completes.
// On main both launched into the data plane at once; against the real
// cluster the second wiped the first's completion callback on rejection,
// leaving the first stuck Running forever.
func TestSameVMSpecsQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	first := ctl.SubmitNamed("first", spec("vma"))
	second := ctl.SubmitNamed("second", spec("vma"))
	eng.RunSeconds(1)
	if first.Status.Phase != PhaseRunning {
		t.Fatalf("first: %s, want Running", first.Status.Phase)
	}
	if second.Status.Phase != PhasePending {
		t.Fatalf("second: %s, want Pending while the VM is mid-migration", second.Status.Phase)
	}
	if len(fc.launched) != 1 {
		t.Fatalf("%d data-plane launches for one VM", len(fc.launched))
	}
	fc.launched[0].complete()
	eng.RunSeconds(1)
	if first.Status.Phase != PhaseSucceeded {
		t.Fatalf("first after completion: %s", first.Status.Phase)
	}
	if second.Status.Phase != PhaseRunning {
		t.Fatalf("second after first completed: %s", second.Status.Phase)
	}
	fc.launched[1].complete()
	if second.Status.Phase != PhaseSucceeded || !ctl.Done() {
		t.Fatalf("second: %s, done=%v", second.Status.Phase, ctl.Done())
	}
}

// TestFailedLaunchFreesSlot: a synchronously rejected launch must hand its
// concurrency slot back and re-kick the reconcile loop. On main, with
// MaxConcurrent=1 and nothing Running, the remaining Pending objects were
// never reconciled again.
func TestFailedLaunchFreesSlot(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(2)
	fc.failNext = errors.New("unknown VM")
	ctl := NewController(eng, fc, Config{MaxConcurrent: 1, Policy: GreedyFreeRAM{}})
	bad := ctl.Submit(spec("vma"))
	good := ctl.Submit(spec("vmb"))
	eng.RunSeconds(2)
	if bad.Status.Phase != PhaseFailed {
		t.Fatalf("bad: %s, want Failed", bad.Status.Phase)
	}
	if good.Status.Phase != PhaseRunning {
		t.Fatalf("good: %s, want Running (stranded by the failed launch?)", good.Status.Phase)
	}
	fc.launched[0].complete()
	if !ctl.Done() {
		t.Fatal("controller not done")
	}
}

// TestResubmitAfterTerminal: a terminal object's name is reusable, so
// Submit's auto-generated "mig-<vm>" name can move the same VM again.
func TestResubmitAfterTerminal(t *testing.T) {
	eng := sim.NewEngine(1)
	fc := newFake(1)
	ctl := NewController(eng, fc, Config{Policy: GreedyFreeRAM{}})
	first := ctl.Submit(spec("vma"))
	eng.RunSeconds(1)
	fc.launched[0].complete()
	if first.Status.Phase != PhaseSucceeded {
		t.Fatalf("first: %s", first.Status.Phase)
	}
	second := ctl.Submit(spec("vma")) // same "mig-vma" name, must not panic
	eng.RunSeconds(1)
	if second.Status.Phase != PhaseRunning {
		t.Fatalf("second: %s, want Running", second.Status.Phase)
	}
	fc.launched[1].complete()
	if second.Status.Phase != PhaseSucceeded {
		t.Fatalf("second after completion: %s", second.Status.Phase)
	}
	if got := ctl.Get("mig-vma"); got != second {
		t.Fatal("Get returns the stale terminal object")
	}
	if len(ctl.Migrations()) != 2 {
		t.Fatalf("%d objects in history, want 2", len(ctl.Migrations()))
	}
}

func TestGreedyPlacement(t *testing.T) {
	hosts := []HostCapacity{
		{Name: "a", RAMBytes: 100, FreeReservationBytes: 50},
		{Name: "b", RAMBytes: 100, FreeReservationBytes: 80},
		{Name: "c", RAMBytes: 100, FreeReservationBytes: 80},
	}
	reqs := []Request{
		{VM: "v1", ReservationBytes: 10, Source: "s"},
		{VM: "v2", ReservationBytes: 10, Source: "s"},
		{VM: "v3", ReservationBytes: 100, Source: "s"}, // infeasible
	}
	got := GreedyFreeRAM{}.Place(hosts, reqs)
	// b and c tie at 80; name breaks the tie, then b drops to 70 so c wins.
	want := []string{"b", "c", ""}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("req %d placed on %q, want %q (%v)", i, got[i], want[i], got)
		}
	}
}

func TestDestinationSwapSpreads(t *testing.T) {
	// One big host and two small ones: first-fit stacks the big one, the
	// local search must spread the batch across all three.
	hosts := []HostCapacity{
		{Name: "big", RAMBytes: 1000, FreeReservationBytes: 900},
		{Name: "sm1", RAMBytes: 300, FreeReservationBytes: 250},
		{Name: "sm2", RAMBytes: 300, FreeReservationBytes: 250},
	}
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{VM: "v" + string(rune('0'+i)), ReservationBytes: 50, Source: "s"})
	}
	got := DestinationSwap{}.Place(hosts, reqs)
	count := map[string]int{}
	for i, d := range got {
		if d == "" {
			t.Fatalf("req %d unplaced", i)
		}
		count[d]++
	}
	if count["sm1"] == 0 || count["sm2"] == 0 {
		t.Fatalf("batch not spread: %v", count)
	}
	if count["big"] == 6 {
		t.Fatalf("everything stacked on the big host: %v", count)
	}
}

func TestDestinationSwapRespectsCapacityAndConstraints(t *testing.T) {
	hosts := []HostCapacity{
		{Name: "a", RAMBytes: 100, FreeReservationBytes: 60},
		{Name: "b", RAMBytes: 100, FreeReservationBytes: 60},
	}
	reqs := []Request{
		{VM: "v1", ReservationBytes: 50, Source: "s", Allowed: []string{"a"}},
		{VM: "v2", ReservationBytes: 50, Source: "s"},
		{VM: "v3", ReservationBytes: 50, Source: "s"},
	}
	got := DestinationSwap{}.Place(hosts, reqs)
	if got[0] != "a" {
		t.Fatalf("constrained request placed on %q", got[0])
	}
	if got[1] == "" && got[2] == "" {
		t.Fatal("both unconstrained requests unplaced")
	}
	// Capacity: no host can take two 50-byte reservations out of 60 free.
	count := map[string]int{}
	for _, d := range got {
		if d != "" {
			count[d]++
		}
	}
	if count["a"] > 1 || count["b"] > 1 {
		t.Fatalf("capacity violated: %v", count)
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() []string {
		eng := sim.NewEngine(1)
		fc := newFake(5)
		ctl := NewController(eng, fc, Config{MaxConcurrent: 2, Policy: DestinationSwap{}})
		for _, vm := range []string{"vma", "vmb", "vmc", "vmd", "vme"} {
			ctl.Submit(spec(vm))
		}
		eng.RunSeconds(1)
		for len(fc.launched) > 0 {
			fc.launched[0].complete()
			fc.launched = fc.launched[1:]
			eng.RunSeconds(1)
		}
		var log []string
		for _, m := range ctl.Migrations() {
			log = append(log, m.Name+":"+m.Status.Phase.String()+":"+m.Status.Dest)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
