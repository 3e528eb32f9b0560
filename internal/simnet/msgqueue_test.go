package simnet

import (
	"testing"

	"agilemig/internal/sim"
)

// TestMessageQueueGrowsInOrder grows a flow's message queue while its
// oldest callbacks have already fired, so the live span starts past the
// front of the buffer, and checks that callbacks still fire in send order.
func TestMessageQueueGrowsInOrder(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b") // 1000 bytes/tick
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	var got []int
	sent := 0
	send := func(n int) {
		for i := 0; i < n; i++ {
			i := sent
			f.SendMessage(250, func() { got = append(got, i) })
			sent++
		}
	}
	send(12)
	first := f.msgs.Cap()
	for len(got) < 4 { // four 250-byte messages land per tick
		eng.Step()
	}
	// Four fired and eight live: the next messages fill the buffer behind
	// the fired prefix and force it to double.
	send(12)
	if f.msgs.Cap() != 2*first || f.msgs.Len() != 20 {
		t.Fatalf("queue cap %d, len %d; want %d, 20", f.msgs.Cap(), f.msgs.Len(), 2*first)
	}
	eng.Run(eng.Now() + 20)
	if len(got) != sent {
		t.Fatalf("%d of %d callbacks fired", len(got), sent)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("callbacks out of order: %v", got)
		}
	}
}

// TestCloseInCallbackStopsDrain closes a flow from inside one of its own
// callbacks, with more messages due in the same tick, and reuses the freed
// queue on a new flow from that same callback. The closed flow's later
// callbacks must never fire; the new flow's must.
func TestCloseInCallbackStopsDrain(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	var g *Flow
	var got []string
	f.SendMessage(100, func() {
		got = append(got, "f0")
		f.Close()
		g = net.NewFlow("g", nics["a"], nics["b"], 0)
		g.SendMessage(100, func() { got = append(got, "g0") })
	})
	f.SendMessage(100, func() { got = append(got, "f1") })
	f.SendMessage(100, func() { got = append(got, "f2") })
	eng.Run(eng.Now() + 10)
	if len(got) != 2 || got[0] != "f0" || got[1] != "g0" {
		t.Fatalf("callbacks %v, want [f0 g0]", got)
	}
	if g.msgs.Cap() == 0 || len(net.msgFree) != 0 {
		t.Fatalf("new flow did not take the closed flow's queue (cap %d, %d free)", g.msgs.Cap(), len(net.msgFree))
	}
}

// TestReusedQueueFiresNoStaleCallback closes a flow with callbacks still
// queued and checks that the next flow to take its queue never fires them,
// and that a closed flow or a loss-window drop still reports not queued.
func TestReusedQueueFiresNoStaleCallback(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c")
	a := net.NewFlow("a", nics["a"], nics["b"], 0)
	stale := 0
	for i := 0; i < 10; i++ {
		a.SendMessage(1000, func() { stale++ })
	}
	eng.Step() // in flight, none delivered
	a.Close()
	if len(net.msgFree) != 1 {
		t.Fatalf("%d queues on the free list after Close, want 1", len(net.msgFree))
	}
	if a.SendMessage(100, func() { stale++ }) {
		t.Fatal("SendMessage on a closed flow reported queued")
	}
	if len(net.msgFree) != 1 {
		t.Fatal("a closed flow took a queue from the free list")
	}

	b := net.NewFlow("b", nics["a"], nics["b"], 0)
	fresh := 0
	if !b.SendMessage(100, func() { fresh++ }) {
		t.Fatal("SendMessage on an open, lossless flow reported not queued")
	}
	if len(net.msgFree) != 0 || b.msgs.Len() != 1 {
		t.Fatalf("b did not reuse the freed queue: %d free, %d queued", len(net.msgFree), b.msgs.Len())
	}
	nics["b"].SetLossRate(1, 3)
	if b.SendMessage(100, func() { stale++ }) {
		t.Fatal("SendMessage reported queued for a message the loss window dropped")
	}
	nics["b"].SetLossRate(0, 3)
	eng.Run(eng.Now() + 100)
	if stale != 0 || fresh != 1 {
		t.Fatalf("stale callbacks %d, fresh %d; want 0, 1", stale, fresh)
	}
}

// BenchmarkSimnetDeliver measures the cost per delivered message of a
// migration-like stream: 16-byte records queued up to a 2 MiB send window
// over a 1 Gbps link. The network also holds 18 closed flows, the most any
// agilebench workload's network ends with (host_drain, after its six
// migrations). Every 64 Ki records the stream drains, closes and is
// replaced by a new one, as consecutive migrations replace theirs.
func BenchmarkSimnetDeliver(b *testing.B) {
	const (
		window    = 2 << 20
		perStream = 1 << 16
	)
	eng := sim.NewEngine(1)
	net := New(eng)
	src, dst := net.NewNIC("src", 125_000_000), net.NewNIC("dst", 125_000_000)
	for i := 0; i < 18; i++ {
		net.NewFlow("finished", src, dst, 0).Close()
	}
	delivered := 0
	landed := func() { delivered++ }
	f := net.NewFlow("stream", src, dst, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perStream == 0 {
			for f.Delivered() < f.Offered() {
				eng.Step()
			}
			f.Close()
			f = net.NewFlow("stream", src, dst, 0)
		}
		for f.Backlog() >= window {
			eng.Step()
		}
		f.SendMessage(16, landed)
	}
	for delivered < b.N {
		eng.Step()
	}
}
