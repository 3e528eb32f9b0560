package core

import (
	"testing"

	"agilemig/internal/blockdev"
	"agilemig/internal/cgroup"
	"agilemig/internal/host"
	"agilemig/internal/mem"
	"agilemig/internal/sim"
	"agilemig/internal/simnet"
)

// newPushRig builds just the push stream of a migration: source and
// destination tables of the given size, the record bitmaps, and the push
// flow over a 1 Gbps link. There are no hosts, cgroups or guest, so it
// exercises nothing but sending and delivering push-stream messages.
func newPushRig(pages int) (*sim.Engine, *simnet.NIC, *Migration) {
	eng := sim.NewEngine(1)
	net := simnet.New(eng)
	src, dst := net.NewNIC("src", gbps), net.NewNIC("dst", gbps)
	m := &Migration{
		eng:            eng,
		net:            net,
		nPages:         pages,
		srcTable:       mem.NewTable(pages),
		destTable:      mem.NewTable(pages),
		knownUntouched: mem.NewBitmap(pages),
		offsetSent:     mem.NewBitmap(pages),
		pushFlow:       net.NewFlow("push", src, dst, 0),
	}
	m.deliverPushF = m.deliverPush
	return eng, dst, m
}

func TestPushPathAllocatesNothing(t *testing.T) {
	const pages = 256
	eng, _, m := newPushRig(pages)
	p := mem.PageID(0)
	push := func() {
		m.sendFullPages(p, 1, false)
		m.sendOffsetRecord(p + 1)
		m.sendUntouchedRecord(p + 2)
		eng.Run(eng.Now() + 2)
		p = (p + 3) % 252 // each page keeps its one role across laps
	}
	for i := 0; i < 100; i++ {
		push()
	}
	if n := testing.AllocsPerRun(100, push); n != 0 {
		t.Errorf("%v allocs per full page + offset record + untouched record, want 0", n)
	}
	if n := m.pushQ.Len(); n != 0 {
		t.Fatalf("%d push messages still queued after delivery", n)
	}
}

// TestSwapInAndSendAllocatesNothing drives the pre-copy swap-in path
// through the shared SSD partition: a cluster of swapped pages faulted in
// with one readahead read and streamed, and a page already being faulted
// in by the guest, joined. Neither may allocate once the pools are warm.
func TestSwapInAndSendAllocatesNothing(t *testing.T) {
	const pages = 256
	eng, _, m := newPushRig(pages)
	h := host.New(eng, m.net, host.Config{Name: "src", RAMBytes: gib, NetBytesPerSec: gbps})
	h.ConfigureSharedSwap(blockdev.Config{Name: "ssd", BytesPerSecond: 60 * mib, IOPS: 10_000}, gib)
	be := h.SharedSwapBackend()
	m.srcGroup = cgroup.New(eng, "src/vm", m.srcTable, be, pages*mem.PageSize)
	bm := mem.NewBitmap(pages)
	swapOut := func(p mem.PageID) {
		slot, _ := be.SlotFor(p)
		m.srcTable.SetState(p, mem.StateSwapped)
		m.srcTable.SetSwapOffset(p, slot)
	}
	p := mem.PageID(0)
	lap := func() {
		for q := p; q < p+swapInCluster+1; q++ {
			swapOut(q)
			bm.Set(q)
		}
		bm.Clear(p)
		m.swapInAndSend(p, bm, false) // clusters p .. p+swapInCluster-1
		m.srcGroup.FaultIn(p+swapInCluster, nil)
		bm.Clear(p + swapInCluster)
		m.swapInAndSend(p+swapInCluster, bm, false) // joins the guest's fault
		eng.Run(eng.Now() + 50)
		p = (p + swapInCluster + 1) % (pages - swapInCluster - 1)
	}
	for i := 0; i < 100; i++ {
		lap()
	}
	if n := testing.AllocsPerRun(100, lap); n != 0 {
		t.Errorf("%v allocs per swapped-in cluster and joined fault, want 0", n)
	}
	if m.faultInFlight != 0 || m.pushQ.Len() != 0 {
		t.Fatalf("%d swap-ins and %d push messages still in flight", m.faultInFlight, m.pushQ.Len())
	}
	if want := int64(201 * (swapInCluster + 1)); m.result.PagesSent != want {
		t.Fatalf("%d pages sent, want %d", m.result.PagesSent, want)
	}
}

// TestPushQueueSkipsLostMessages checks that the push FIFO stays aligned
// with the flow: a message the loss window drops must not leave its item
// queued, or every later delivery would land the wrong page.
func TestPushQueueSkipsLostMessages(t *testing.T) {
	const pages = 300
	eng, dst, m := newPushRig(pages)
	for p := mem.PageID(0); p < pages; p++ {
		if p%3 == 0 {
			dst.SetLossRate(1, 9)
		} else {
			dst.SetLossRate(0, 9)
		}
		if p%2 == 0 {
			m.sendFullPages(p, 1, false)
		} else {
			m.sendUntouchedRecord(p)
		}
	}
	eng.Run(eng.Now() + 100)
	for p := mem.PageID(0); p < pages; p++ {
		delivered := p%3 != 0
		gotFull := m.destTable.State(p) == mem.StateResident
		gotRecord := m.knownUntouched.Test(p)
		if gotFull != (delivered && p%2 == 0) || gotRecord != (delivered && p%2 == 1) {
			t.Fatalf("page %d: full page landed %v, zero record landed %v; delivered %v", p, gotFull, gotRecord, delivered)
		}
	}
}

// BenchmarkCorePushPage measures the cost per page a pre-copy round
// streams: the run builder, the push FIFO, the flow and the destination
// landing, with the round's send window applied, as pumpRound does.
func BenchmarkCorePushPage(b *testing.B) {
	const pages = 1 << 14
	eng, _, m := newPushRig(pages)
	bm := mem.NewBitmap(pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m.pushFlow.Backlog() >= windowBytes {
			eng.Step()
		}
		m.sendFullRun(mem.PageID(i%pages), bm, pumpPagesPerTick, false, extendNonSwap)
	}
	for m.pushFlow.Delivered() < m.pushFlow.Offered() {
		eng.Step()
	}
	b.StopTimer()
	if m.result.PagesSent != int64(b.N) {
		b.Fatalf("%d/%d pages sent", m.result.PagesSent, b.N)
	}
}

// TestPushQueueWithinModelBound runs an Agile migration whose live round
// sends most of the VM as 16-byte offset records over a rate-capped stream
// with link latency, so records pile up to the send window, and checks the
// push queue's high-water mark against the bound documented on pushQ.
func TestPushQueueWithinModelBound(t *testing.T) {
	r := newRig(t, rigOpt{vmBytes: 1 * gib, datasetBytes: 800 * mib, resBytes: 400 * mib, agileSwap: true})
	const latency = 5
	spec := Spec{
		VM:                   r.vm,
		Source:               r.src,
		Dest:                 r.dst,
		DestReservationBytes: r.vm.Group().ReservationBytes(),
		DestBackend:          r.dstVMDBackend(),
		Namespace:            r.ns,
		Latency:              latency,
		Tuning:               Tuning{BandwidthCapBytesPerSec: 20 * mib},
		OnComplete:           func(res *Result) { r.result = res },
	}
	r.mig = Start(r.eng, r.net, Agile, spec)
	hwm := 0
	r.eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) {
		if n := r.mig.pushQ.Len(); n > hwm {
			hwm = n
		}
	})
	r.wait(t, 600)
	if r.result.OffsetRecords == 0 {
		t.Fatal("no offset records sent")
	}
	egressPerTick := int64(float64(gbps) / r.eng.TicksPerSecond())
	largest := int64(mem.PageSize + pageHeaderBytes) // BatchPages 0: one page per message
	bound := (windowBytes + largest + (latency+1)*egressPerTick) / recordBytes
	if int64(hwm) > bound {
		t.Fatalf("push queue high-water mark %d exceeds the model bound %d", hwm, bound)
	}
	if int64(hwm) < windowBytes/recordBytes/4 {
		t.Fatalf("push queue high-water mark %d: records never queued near the send window (%d records)", hwm, windowBytes/recordBytes)
	}
	t.Logf("push queue high-water mark %d of bound %d (%d offset records)", hwm, bound, r.result.OffsetRecords)
}
