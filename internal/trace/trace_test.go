package trace

import (
	"strings"
	"testing"
)

func TestAddAndFind(t *testing.T) {
	tr := New(16)
	tr.Emitter(ScopeCluster, "").Emitf(1.5, MigrationStart, "vm%d", 1)
	tr.Emitter(ScopeCluster, "").Emitf(2.0, Suspend, "stop")
	tr.Emitter(ScopeCluster, "").Emitf(3.0, Switchover, "resumed")
	if len(tr.Events()) != 3 {
		t.Fatalf("%d events", len(tr.Events()))
	}
	e := tr.Find(Suspend)
	if e == nil || e.T != 2.0 || e.Detail != "stop" {
		t.Fatalf("Find(Suspend) = %+v", e)
	}
	if tr.Find(Complete) != nil {
		t.Fatal("found an event that was never recorded")
	}
	if tr.Events()[0].Detail != "vm1" {
		t.Fatal("format args not applied")
	}
}

func TestRingDropsOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emitter(ScopeCluster, "").Emitf(float64(i), RoundEnd, "r%d", i)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("%d events kept, want 4", len(ev))
	}
	if ev[0].Detail != "r6" || ev[3].Detail != "r9" {
		t.Fatalf("wrong window: %v .. %v", ev[0].Detail, ev[3].Detail)
	}
	if tr.Drops() != 6 {
		t.Fatalf("Drops = %d", tr.Drops())
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Emitter(ScopeCluster, "").Emitf(1, Suspend, "x") // must not panic
	if tr.Events() != nil || tr.Drops() != 0 || tr.Find(Suspend) != nil || tr.Count(Suspend) != 0 {
		t.Fatal("nil trace not inert")
	}
}

func TestCount(t *testing.T) {
	tr := New(0)
	tr.Emitter(ScopeCluster, "").Emitf(1, RoundEnd, "")
	tr.Emitter(ScopeCluster, "").Emitf(2, RoundEnd, "")
	tr.Emitter(ScopeCluster, "").Emitf(3, Suspend, "")
	if tr.Count(RoundEnd) != 2 || tr.Count(Suspend) != 1 {
		t.Fatal("count wrong")
	}
}

func TestStringRendersAllEvents(t *testing.T) {
	tr := New(2)
	tr.Emitter(ScopeCluster, "").Emitf(1, MigrationStart, "a")
	tr.Emitter(ScopeCluster, "").Emitf(2, Complete, "b")
	tr.Emitter(ScopeCluster, "").Emitf(3, Complete, "c")
	out := tr.String()
	if !strings.Contains(out, "complete") || !strings.Contains(out, "dropped") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{MigrationStart, RoundStart, RoundEnd, Throttle, Suspend,
		CPUStateSent, Switchover, SourceDrained, Complete, Kind(42)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
}
