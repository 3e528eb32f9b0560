package core

import (
	"testing"

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
	if m.pushHead != len(m.pushQ) {
		t.Fatalf("%d push messages still queued after delivery", len(m.pushQ)-m.pushHead)
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
