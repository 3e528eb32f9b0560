package cgroup_test

import (
	"testing"

	"agilemig/internal/blockdev"
	"agilemig/internal/cgroup"
	"agilemig/internal/host"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

const clusterPages = 8 // the kernel's default swap readahead cluster

// clusterRig is a group over a page table, swapping to a host's shared SSD
// partition, with a reservation that never triggers reclaim.
type clusterRig struct {
	eng     *sim.Engine
	tb      *mem.Table
	g       *cgroup.Group
	be      cgroup.SwapBackend
	batch   []mem.PageID
	next    mem.PageID
	landed  int
	landedF func()
}

func newClusterRig(pages int) *clusterRig {
	eng := sim.NewEngine(1)
	h := host.New(eng, simnet.New(eng), host.Config{Name: "h", RAMBytes: 1 << 30, NetBytesPerSec: 125_000_000})
	h.ConfigureSharedSwap(blockdev.Config{Name: "ssd", BytesPerSecond: 60 << 20, IOPS: 10_000}, 1<<30)
	r := &clusterRig{eng: eng, tb: mem.NewTable(pages), be: h.SharedSwapBackend()}
	r.g = cgroup.New(eng, "h/vm", r.tb, r.be, int64(pages)*mem.PageSize)
	r.landedF = func() { r.landed++ }
	return r
}

// faultInCluster swaps out the next cluster of pages and starts its
// clustered swap-in, reusing one batch slice (FaultInCluster copies it).
func (r *clusterRig) faultInCluster() {
	if int(r.next)+clusterPages > r.tb.Len() {
		r.next = 0
	}
	r.batch = r.batch[:0]
	for p := r.next; p < r.next+clusterPages; p++ {
		slot, _ := r.be.SlotFor(p)
		r.tb.SetState(p, mem.StateSwapped)
		r.tb.SetSwapOffset(p, slot)
		r.batch = append(r.batch, p)
	}
	r.next += clusterPages
	r.g.FaultInCluster(r.batch, r.landedF)
}

func TestFaultInClusterAllocatesNothing(t *testing.T) {
	r := newClusterRig(256)
	lap := func() {
		r.faultInCluster()
		r.eng.Run(r.eng.Now() + 20)
	}
	for i := 0; i < 100; i++ {
		lap()
	}
	if n := testing.AllocsPerRun(100, lap); n != 0 {
		t.Errorf("%v allocs per clustered swap-in, want 0", n)
	}
	if r.landed != 201 || r.g.Stats().SwapInPages != 201*clusterPages {
		t.Fatalf("%d clusters landed, %d pages swapped in; want 201, %d", r.landed, r.g.Stats().SwapInPages, 201*clusterPages)
	}
}

// BenchmarkCgroupFaultInCluster measures one clustered swap-in of eight
// pages through the shared SSD partition, with up to 16 clusters in flight
// (the migration's swap-in bound).
func BenchmarkCgroupFaultInCluster(b *testing.B) {
	const inFlight = 16
	r := newClusterRig(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for i-r.landed >= inFlight {
			r.eng.Step()
		}
		r.faultInCluster()
	}
	for r.landed < b.N {
		r.eng.Step()
	}
}
