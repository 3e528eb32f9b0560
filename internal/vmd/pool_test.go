package vmd

import (
	"testing"
)

// checkPools fails the test if a free list holds the same record twice or
// a record that still counts queued callbacks or holds request state.
func checkPools(t *testing.T, v *VMD) {
	t.Helper()
	unique := func(name string, n int, at func(int) any) {
		seen := make(map[any]bool, n)
		for i := 0; i < n; i++ {
			r := at(i)
			if seen[r] {
				t.Fatalf("%s free list holds a record twice (double recycle)", name)
			}
			seen[r] = true
		}
	}
	unique("writeOp", len(v.writeFree), func(i int) any { return v.writeFree[i] })
	unique("copySend", len(v.copyFree), func(i int) any { return v.copyFree[i] })
	unique("runRead", len(v.readFree), func(i int) any { return v.readFree[i] })
	unique("overwriteSend", len(v.overFree), func(i int) any { return v.overFree[i] })
	for _, op := range v.writeFree {
		if op.ns != nil || op.fn != nil || op.pending != 0 {
			t.Fatalf("recycled writeOp not cleared: %+v", *op)
		}
	}
	for _, r := range v.copyFree {
		if r.refs != 0 || r.op != nil || r.settled || r.storedSrv != nil {
			t.Fatalf("recycled copySend not cleared: refs %d, settled %v", r.refs, r.settled)
		}
	}
	for _, r := range v.readFree {
		if r.refs != 0 || r.ns != nil || r.settled {
			t.Fatalf("recycled runRead not cleared: refs %d, settled %v", r.refs, r.settled)
		}
	}
}

// usedPages sums the memory pages the rig's servers hold.
func (r *rig) usedPages() int64 {
	var n int64
	for _, s := range r.servers {
		n += s.Used()
	}
	return n
}

// stepUntil advances the rig one tick at a time until cond holds, failing
// after limit ticks.
func (r *rig) stepUntil(t *testing.T, limit int, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == limit {
			t.Fatalf("condition not reached within %d ticks", limit)
		}
		r.eng.Run(r.eng.Now() + 1)
	}
}

func TestRemoteWriteRoundTripAllocatesNothing(t *testing.T) {
	for _, pages := range []int{1, 8} {
		for _, ft := range []float64{0, 0.05} {
			r := newFaultRig(t, 4, 1000, 64, 1, ft)
			offs := make([]uint32, pages)
			first := uint32(0)
			round := func() {
				for i := range offs {
					offs[i] = first + uint32(i)
				}
				if pages == 1 {
					r.ns.Write(r.client, first, nil)
				} else {
					r.ns.WriteBatch(r.client, offs, nil)
				}
				r.eng.RunSeconds(0.005)
				for _, off := range offs {
					r.ns.Free(off)
				}
				first = (first + uint32(pages)) % 64
			}
			// Warm up past the fault-tolerance timeout so the free lists hold
			// every record the steady state keeps in flight.
			for i := 0; i < 100; i++ {
				round()
			}
			if n := testing.AllocsPerRun(100, round); n != 0 {
				t.Errorf("%d pages, fault timeout %v: %v allocs per remote write round trip, want 0", pages, ft, n)
			}
			checkPools(t, r.v)
		}
	}
}

func TestFlatReadAllocatesNothing(t *testing.T) {
	for _, ft := range []float64{0, 0.05} {
		r := newFaultRig(t, 4, 1000, 64, 1, ft)
		for i := 0; i < 64; i++ {
			r.ns.Write(r.client, uint32(i), nil)
		}
		r.eng.RunSeconds(1)
		served := 0
		fn := func() { served++ }
		off := uint32(0)
		read := func() {
			r.ns.Read(r.client, off, fn)
			r.eng.RunSeconds(0.005)
			off = (off + 1) % 64
		}
		for i := 0; i < 100; i++ {
			read()
		}
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("fault timeout %v: %v allocs per flat read, want 0", ft, n)
		}
		if served != 201 {
			t.Fatalf("%d/201 reads served", served)
		}
		checkPools(t, r.v)
	}
}

func TestLateAckAfterTimeoutKeepsAccountingExact(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 16, 1, 0.05)
	done := 0
	r.ns.Write(r.client, 3, func() { done++ })
	// Hold the ack on the wire: the page is stored, then the storing
	// server's link goes down before the ack leaves.
	r.stepUntil(t, 100, func() bool { return r.usedPages() == 1 })
	first := r.servers[0]
	if first.Used() == 0 {
		first = r.servers[1]
	}
	first.nic.SetDown(true)
	r.eng.RunSeconds(0.2) // the timeout fires and redirects to the other server
	if done != 1 || first.Used() != 0 || r.usedPages() != 1 {
		t.Fatalf("after the timeout: %d completions, %d pages on the timed-out server, %d in all; want 1, 0, 1",
			done, first.Used(), r.usedPages())
	}
	first.nic.SetDown(false) // the late ack lands
	r.eng.RunSeconds(1)
	if done != 1 {
		t.Fatalf("write completed %d times, want 1", done)
	}
	if r.usedPages() != 1 || r.ns.Stored() != 1 || r.ns.LostPages() != 0 || r.ns.CopiesOf(3) != 1 {
		t.Fatalf("used %d, stored %d, lost %d, copies %d; want 1, 1, 0, 1",
			r.usedPages(), r.ns.Stored(), r.ns.LostPages(), r.ns.CopiesOf(3))
	}
	if _, _, retried := r.client.Stats(); retried != 1 {
		t.Fatalf("%d retries, want 1", retried)
	}
	// Both copies (the abandoned one and the redirect) and the op recycled
	// exactly once each.
	if len(r.v.copyFree) != 2 || len(r.v.writeFree) != 1 {
		t.Fatalf("free lists hold %d copies and %d ops, want 2 and 1", len(r.v.copyFree), len(r.v.writeFree))
	}
	checkPools(t, r.v)
}

func TestRunTimeoutRevertsWholeRun(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 16, 1, 0.05)
	offs := []uint32{4, 5, 6, 7, 8, 9, 10, 11}
	done := 0
	r.ns.WriteBatch(r.client, offs, func() { done++ })
	// The run is on the wire; a loss window on the client drops the ack
	// its store sends back.
	r.client.nic.SetLossRate(1, 3)
	r.stepUntil(t, 100, func() bool { return r.usedPages() == 8 })
	r.client.nic.SetLossRate(0, 3)
	first := r.servers[0]
	if first.Used() == 0 {
		first = r.servers[1]
	}
	if first.Used() != 8 {
		t.Fatalf("run split across servers before the timeout: %d/8 on one", first.Used())
	}
	r.eng.RunSeconds(1) // the timeout reverts the run and redirects it
	if done != 1 {
		t.Fatalf("write completed %d times, want 1", done)
	}
	if first.Used() != 0 || r.usedPages() != 8 || r.ns.Stored() != 8 {
		t.Fatalf("%d pages on the timed-out server, %d in all, stored %d; want 0, 8, 8",
			first.Used(), r.usedPages(), r.ns.Stored())
	}
	for _, off := range offs {
		if c := r.ns.CopiesOf(off); c != 1 {
			t.Fatalf("offset %d has %d copies, want 1", off, c)
		}
	}
	if w, _, retried := r.client.Stats(); w != 8 || retried != 1 {
		t.Fatalf("%d pages written, %d retries; want 8, 1", w, retried)
	}
	// The dropped ack was never counted, so the abandoned copy recycled at
	// its timeout and carried the redirect; it and the op are back once.
	if len(r.v.copyFree) != 1 || len(r.v.writeFree) != 1 {
		t.Fatalf("free lists hold %d copies and %d ops, want 1 and 1", len(r.v.copyFree), len(r.v.writeFree))
	}
	checkPools(t, r.v)
}

func TestTimeoutAfterAckLeavesRecycledOpAlone(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 16, 1, 0.05)
	done := 0
	r.ns.Write(r.client, 1, func() { done++ })
	r.stepUntil(t, 100, func() bool { return done == 1 })
	// The op is back on its free list while the copy's timeout is still
	// queued; the next write reuses the op.
	if len(r.v.writeFree) != 1 {
		t.Fatalf("%d ops recycled after the ack, want 1", len(r.v.writeFree))
	}
	reused := r.v.writeFree[0]
	r.ns.Write(r.client, 2, func() { done++ })
	if len(r.v.writeFree) != 0 {
		t.Fatal("second write did not reuse the recycled op")
	}
	r.eng.RunSeconds(1) // both timeouts fire after their acks
	if done != 2 {
		t.Fatalf("%d/2 writes completed", done)
	}
	if _, _, retried := r.client.Stats(); retried != 0 {
		t.Fatalf("%d retries from timeouts that fired after their acks", retried)
	}
	if r.usedPages() != 2 || r.ns.Stored() != 2 || r.ns.LostPages() != 0 {
		t.Fatalf("used %d, stored %d, lost %d; want 2, 2, 0", r.usedPages(), r.ns.Stored(), r.ns.LostPages())
	}
	if len(r.v.writeFree) != 1 || r.v.writeFree[0] != reused || len(r.v.copyFree) != 2 {
		t.Fatalf("free lists hold %d ops and %d copies, want the one op and 2 copies", len(r.v.writeFree), len(r.v.copyFree))
	}
	checkPools(t, r.v)
}

func TestNackThenRetryRecyclesOnce(t *testing.T) {
	r := newFaultRig(t, 2, 1000, 16, 1, 0.05)
	r.servers[0].capacity = 1
	r.client.SetLoadAware(false) // blind rotation: the third write hits the full server
	done := 0
	for off := uint32(0); off < 3; off++ {
		r.ns.Write(r.client, off, func() { done++ })
		r.eng.RunSeconds(0.05)
	}
	r.eng.RunSeconds(1)
	if done != 3 {
		t.Fatalf("%d/3 writes completed", done)
	}
	_, _, rejects := r.servers[0].Stats()
	_, _, retried := r.client.Stats()
	if rejects != 1 || retried != 1 {
		t.Fatalf("%d NACKs, %d retries; want 1, 1", rejects, retried)
	}
	if r.servers[0].Used() != 1 || r.servers[1].Used() != 2 || r.ns.Stored() != 3 {
		t.Fatalf("used %d/%d, stored %d; want 1/2, 3", r.servers[0].Used(), r.servers[1].Used(), r.ns.Stored())
	}
	checkPools(t, r.v)
}

func TestReplicasThroughMidFlightCrash(t *testing.T) {
	r := newFaultRig(t, 3, 1000, 64, 2, 0.05)
	done := make([]int, 64)
	for off := uint32(0); off < 64; off++ {
		r.ns.Write(r.client, off, func() { done[off]++ })
	}
	r.eng.Run(r.eng.Now() + 2) // some copies stored, most still on the wire
	stored0 := r.servers[0].Used()
	r.servers[0].Crash()
	r.eng.RunSeconds(30) // timeouts redirect; background repair restores K
	if _, _, retried := r.client.Stats(); stored0 == 0 || retried == 0 {
		t.Fatalf("crash was not mid-flight: %d pages stored on the crashed server, %d retries", stored0, retried)
	}
	for off, n := range done {
		if n != 1 {
			t.Fatalf("write %d completed %d times, want 1", off, n)
		}
	}
	var copies int64
	for off := uint32(0); off < 64; off++ {
		if c := r.ns.CopiesOf(off); c != 2 {
			t.Fatalf("offset %d has %d copies after repair, want 2", off, c)
		}
		copies += 2
	}
	if r.usedPages() != copies || r.ns.Stored() != 64 || r.ns.LostPages() != 0 {
		t.Fatalf("used %d, stored %d, lost %d; want %d, 64, 0", r.usedPages(), r.ns.Stored(), r.ns.LostPages(), copies)
	}
	checkPools(t, r.v)
}

func TestReadLostInLossWindow(t *testing.T) {
	r := newFaultRig(t, 1, 1000, 16, 1, 0)
	r.ns.Write(r.client, 5, nil)
	r.eng.RunSeconds(1)
	reads := 0
	// Without fault tolerance a dropped request is never retried: its record
	// is never released, so it stays off the free list for the GC.
	r.servers[0].nic.SetLossRate(1, 3)
	r.ns.Read(r.client, 5, func() { reads++ })
	r.servers[0].nic.SetLossRate(0, 3)
	r.eng.RunSeconds(1)
	if reads != 0 || len(r.v.readFree) != 0 {
		t.Fatalf("%d reads served, %d records recycled; want 0, 0", reads, len(r.v.readFree))
	}
	// A later read gets a fresh record, which recycles normally.
	r.ns.Read(r.client, 5, func() { reads++ })
	r.eng.RunSeconds(1)
	if reads != 1 || len(r.v.readFree) != 1 {
		t.Fatalf("%d reads served, %d records recycled; want 1, 1", reads, len(r.v.readFree))
	}
	checkPools(t, r.v)

	// With fault tolerance the timeout fails the read over; the dropped
	// request was never counted, so its record recycles once and is reused
	// for the retry.
	r = newFaultRig(t, 1, 1000, 16, 1, 0.05)
	r.ns.Write(r.client, 5, nil)
	r.eng.RunSeconds(1)
	reads = 0
	r.servers[0].nic.SetLossRate(1, 3)
	r.ns.Read(r.client, 5, func() { reads++ })
	r.servers[0].nic.SetLossRate(0, 3)
	r.eng.RunSeconds(1)
	if reads != 1 || r.ns.FailoverReads() != 1 || len(r.v.readFree) != 1 {
		t.Fatalf("%d reads served, %d failovers, %d records recycled; want 1, 1, 1",
			reads, r.ns.FailoverReads(), len(r.v.readFree))
	}
	if r.usedPages() != 1 || r.ns.Stored() != 1 {
		t.Fatalf("used %d, stored %d; want 1, 1", r.usedPages(), r.ns.Stored())
	}
	// Repeated drops leak nothing: each dropped request's record is the
	// one its retry reuses.
	lossyRead := func() {
		r.servers[0].nic.SetLossRate(1, 3)
		r.ns.Read(r.client, 5, func() { reads++ })
		r.servers[0].nic.SetLossRate(0, 3)
		r.eng.RunSeconds(0.2)
	}
	for i := 0; i < 20; i++ {
		lossyRead()
	}
	if n := testing.AllocsPerRun(20, lossyRead); n > 1 {
		t.Fatalf("%v allocs per dropped-and-retried read, want at most the callback's 1", n)
	}
	if reads != 42 || len(r.v.readFree) != 1 {
		t.Fatalf("%d reads served, %d records recycled; want 42, 1", reads, len(r.v.readFree))
	}
	checkPools(t, r.v)
}
