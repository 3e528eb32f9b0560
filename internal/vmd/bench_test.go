package vmd

import (
	"fmt"
	"testing"

	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

// benchDemandRig builds a 4-server pool pre-loaded with nsPages pages, the
// shape of a migration destination demand-reading its working set back.
func benchDemandRig(store StoreConfig, nsPages int) (*sim.Engine, *Client, *Namespace) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	v := New(eng, net)
	v.Configure(store)
	names := []string{"s0", "s1", "s2", "s3"}
	for _, n := range names {
		v.AddServer(n, net.NewNIC(n, 125_000_000), int64(nsPages))
	}
	c := v.NewClient("host", net.NewNIC("host", 125_000_000), 0)
	ns := v.CreateNamespace("vm", nsPages)
	ns.AttachTo(c)
	for i := 0; i < nsPages; i++ {
		ns.Write(c, uint32(i), nil)
	}
	eng.RunSeconds(30)
	return eng, c, ns
}

// BenchmarkVMDDemandRead measures simulator throughput on the demand-read
// path — the event-processing cost per sequentially demand-read page — for
// the flat v1 store and for the batched+readahead v2 store. The readahead
// variant does strictly more bookkeeping per read (detector, staging), so
// its per-page cost bounds the overhead the prefetcher adds to the kernel.
// Allocations are reported so the per-read allocation cost stays visible.
func BenchmarkVMDDemandRead(b *testing.B) {
	const pages = 1 << 14
	variants := []struct {
		name  string
		store StoreConfig
	}{
		{"flat", StoreConfig{}},
		{"readahead", StoreConfig{
			BatchPages: 32,
			Readahead:  true,
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			eng, c, ns := benchDemandRig(v.store, pages)
			served := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ns.Read(c, uint32(i%pages), func() { served++ })
				eng.RunSeconds(0.005)
			}
			eng.RunSeconds(1)
			b.StopTimer()
			if served != b.N {
				b.Fatalf("%d/%d demand reads served", served, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkVMDWrite measures the remote write path on the same 4-server
// pool: per op, one page (page) or one 32-page WriteBatch run (run32) is
// written to fresh offsets and acked, then freed so the next op writes
// fresh offsets again. Allocations are reported so a per-page allocation
// on the wire path shows up here.
func BenchmarkVMDWrite(b *testing.B) {
	const pages = 1 << 14
	for _, run := range []int{1, 32} {
		name := "page"
		if run > 1 {
			name = fmt.Sprintf("run%d", run)
		}
		b.Run(name, func(b *testing.B) {
			eng, c, ns := benchDemandRig(StoreConfig{}, pages)
			offs := make([]uint32, run)
			acked := 0
			fn := func() { acked++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				first := uint32(i * run % pages)
				for j := range offs {
					offs[j] = first + uint32(j)
					ns.Free(offs[j])
				}
				if run == 1 {
					ns.Write(c, first, fn)
				} else {
					ns.WriteBatch(c, offs, fn)
				}
				eng.RunSeconds(0.005)
			}
			eng.RunSeconds(1)
			b.StopTimer()
			if acked != b.N {
				b.Fatalf("%d/%d writes acked", acked, b.N)
			}
			b.ReportMetric(float64(b.N*run)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}
