package simnet

import (
	"testing"

	"agilemig/internal/sim"
)

// testNet builds an engine and network with NICs of the given byte/s rate.
func testNet(t *testing.T, rate int64, names ...string) (*sim.Engine, *Network, map[string]*NIC) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := New(eng)
	nics := make(map[string]*NIC)
	for _, n := range names {
		nics[n] = net.NewNIC(n, rate)
	}
	return eng, net, nics
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b") // 1000 bytes/tick
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	f.Send(10_000)
	eng.Run(11) // 10 ticks transmitting + 1 tick latency
	if f.Delivered() != 10_000 {
		t.Fatalf("delivered %d after 11 ticks, want 10000", f.Delivered())
	}
}

func TestFlowRespectsBandwidth(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	f.Send(1_000_000)
	eng.Run(5)
	// At 1000 bytes/tick, at most 4 ticks' worth can have been delivered
	// (tick 1 transmission arrives tick 2, etc).
	if f.Delivered() > 5_000 {
		t.Fatalf("delivered %d after 5 ticks at 1000 B/tick", f.Delivered())
	}
	if f.Delivered() == 0 {
		t.Fatal("nothing delivered after 5 ticks")
	}
}

func TestTwoFlowsShareEgressFairly(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c")
	f1 := net.NewFlow("f1", nics["a"], nics["b"], 0)
	f2 := net.NewFlow("f2", nics["a"], nics["c"], 0)
	f1.Send(1_000_000)
	f2.Send(1_000_000)
	eng.Run(100)
	d1, d2 := f1.Delivered(), f2.Delivered()
	if d1 == 0 || d2 == 0 {
		t.Fatal("a flow was starved")
	}
	ratio := float64(d1) / float64(d2)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("egress sharing unfair: %d vs %d", d1, d2)
	}
	total := d1 + d2
	if total > 100*1000 {
		t.Fatalf("delivered %d, exceeds egress capacity", total)
	}
	if total < 90*1000 {
		t.Fatalf("delivered %d, egress badly underutilized", total)
	}
}

func TestIngressContention(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c")
	// Two different sources into one destination: ingress of c is the
	// bottleneck.
	f1 := net.NewFlow("f1", nics["a"], nics["c"], 0)
	f2 := net.NewFlow("f2", nics["b"], nics["c"], 0)
	f1.Send(1_000_000)
	f2.Send(1_000_000)
	eng.Run(100)
	total := f1.Delivered() + f2.Delivered()
	if total > 100*1000 {
		t.Fatalf("delivered %d, exceeds ingress capacity of shared destination", total)
	}
	if total < 90*1000 {
		t.Fatalf("delivered %d, ingress badly underutilized", total)
	}
}

func TestMaxMinUnusedPathGetsFullRate(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c", "d")
	// a->b contends with nothing; c->d contends with nothing. Both should
	// get full line rate despite existing simultaneously.
	f1 := net.NewFlow("f1", nics["a"], nics["b"], 0)
	f2 := net.NewFlow("f2", nics["c"], nics["d"], 0)
	f1.Send(100_000)
	f2.Send(100_000)
	eng.Run(101)
	if f1.Delivered() != 100_000 || f2.Delivered() != 100_000 {
		t.Fatalf("independent flows throttled: %d, %d", f1.Delivered(), f2.Delivered())
	}
}

func TestDemandLimitedFlowReleasesCapacity(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c")
	small := net.NewFlow("small", nics["a"], nics["b"], 0)
	big := net.NewFlow("big", nics["a"], nics["c"], 0)
	// The small flow wants 100 bytes/tick; the big flow should get the
	// remaining ~900.
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) { small.Send(100) })
	big.Send(10_000_000)
	eng.Run(100)
	if big.Delivered() < 85_000 {
		t.Fatalf("big flow delivered only %d; demand-limited flow did not release capacity", big.Delivered())
	}
}

func TestMessageCallbackFIFOOrder(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		f.SendMessage(500, func() { got = append(got, i) })
	}
	eng.Run(20)
	if len(got) != 5 {
		t.Fatalf("only %d callbacks fired", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("callbacks out of order: %v", got)
		}
	}
}

func TestMessageCallbackTiming(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	var at sim.Time = -1
	f.SendMessage(3_000, func() { at = eng.Now() })
	eng.Run(50)
	// 3000 bytes at 1000/tick: transmitted over ticks 1..3, last chunk
	// arrives at tick 4.
	if at != 4 {
		t.Fatalf("3000-byte message delivered at tick %v, want 4", at)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 10)
	var at sim.Time = -1
	f.SendMessage(100, func() { at = eng.Now() })
	eng.Run(50)
	if at != 12 {
		t.Fatalf("message with 10-tick latency delivered at %v, want 12", at)
	}
}

func TestZeroByteMessageDelivered(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	fired := false
	f.SendMessage(0, func() { fired = true })
	eng.Run(3)
	if !fired {
		t.Fatal("zero-byte message never delivered")
	}
}

func TestCloseDropsTraffic(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	fired := false
	f.SendMessage(1_000_000, func() { fired = true })
	eng.Run(5)
	f.Close()
	eng.Run(2000)
	if fired {
		t.Fatal("callback fired after Close")
	}
	if !f.Closed() {
		t.Fatal("Closed() false")
	}
	f.Send(100) // must not panic or accumulate
	if f.Backlog() != 0 {
		t.Fatal("send after close accumulated backlog")
	}
}

func TestNICByteCounters(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	f.Send(5_000)
	eng.Run(10)
	if nics["a"].BytesSent() != 5_000 {
		t.Fatalf("src sent %d", nics["a"].BytesSent())
	}
	if nics["b"].BytesReceived() != 5_000 {
		t.Fatalf("dst received %d", nics["b"].BytesReceived())
	}
}

func TestConservationProperty(t *testing.T) {
	// Offered = delivered + in flight + backlog at every instant, for a mix
	// of flows under contention.
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c")
	flows := []*Flow{
		net.NewFlow("f1", nics["a"], nics["b"], 2),
		net.NewFlow("f2", nics["a"], nics["c"], 0),
		net.NewFlow("f3", nics["b"], nics["c"], 1),
	}
	r := sim.NewRNG(7)
	eng.AddTickerFunc(sim.PhaseWorkload, func(sim.Time) {
		for _, f := range flows {
			if r.Intn(3) == 0 {
				f.Send(int64(r.Intn(5000)))
			}
		}
	})
	for i := 0; i < 500; i++ {
		eng.Step()
		for _, f := range flows {
			if f.Offered() != f.Delivered()+f.InFlight()+f.Backlog() {
				t.Fatalf("tick %d flow %s: offered %d != delivered %d + inflight %d + backlog %d",
					i, f.Name(), f.Offered(), f.Delivered(), f.InFlight(), f.Backlog())
			}
		}
	}
}

func TestBidirectionalFlowsIndependent(t *testing.T) {
	// Full duplex: a->b and b->a should each get full line rate.
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f1 := net.NewFlow("f1", nics["a"], nics["b"], 0)
	f2 := net.NewFlow("f2", nics["b"], nics["a"], 0)
	f1.Send(100_000)
	f2.Send(100_000)
	eng.Run(101)
	if f1.Delivered() != 100_000 || f2.Delivered() != 100_000 {
		t.Fatalf("duplex flows interfered: %d, %d", f1.Delivered(), f2.Delivered())
	}
}

func TestFlowSamePortPanics(t *testing.T) {
	_, net, nics := testNet(t, 1_000_000, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("self-flow did not panic")
		}
	}()
	net.NewFlow("bad", nics["a"], nics["a"], 0)
}

func TestManyFlowsFairShare(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "src", "d1", "d2", "d3", "d4", "d5")
	var flows []*Flow
	for _, d := range []string{"d1", "d2", "d3", "d4", "d5"} {
		f := net.NewFlow(d, nics["src"], nics[d], 0)
		f.Send(10_000_000)
		flows = append(flows, f)
	}
	eng.Run(1000)
	for _, f := range flows {
		share := float64(f.Delivered()) / (1000.0 * 1000.0)
		if share < 0.18 || share > 0.22 {
			t.Fatalf("flow %s got share %.3f of egress, want ~0.2", f.Name(), share)
		}
	}
}

func TestInterleavedSendAndMessages(t *testing.T) {
	// Raw stream bytes interleave with framed messages; callbacks must
	// fire only after ALL preceding bytes (raw included) are delivered.
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	f.Send(5_000)
	var firstAt sim.Time
	f.SendMessage(100, func() { firstAt = eng.Now() })
	f.Send(3_000)
	var secondAt sim.Time
	f.SendMessage(100, func() { secondAt = eng.Now() })
	eng.Run(50)
	if firstAt == 0 || secondAt == 0 {
		t.Fatal("callbacks missing")
	}
	// First message sits behind 5000 bytes (5+ ticks), second behind 8200.
	if firstAt < 6 || secondAt < 9 || secondAt <= firstAt {
		t.Fatalf("ordering wrong: first %v second %v", firstAt, secondAt)
	}
}

func TestFlowOfferedAccounting(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	f.Send(1234)
	f.SendMessage(766, nil)
	if f.Offered() != 2000 {
		t.Fatalf("Offered = %d", f.Offered())
	}
	eng.Run(10)
	if f.Delivered() != 2000 {
		t.Fatalf("Delivered = %d", f.Delivered())
	}
}

func TestSendMessageReportsQueued(t *testing.T) {
	eng, net, nics := testNet(t, 1_000_000, "a", "b", "c")
	f := net.NewFlow("f", nics["a"], nics["b"], 0)
	fired := 0
	if !f.SendMessage(100, func() { fired++ }) {
		t.Fatal("SendMessage on an open, lossless flow reported not queued")
	}
	if f.SendMessage(100, nil) {
		t.Fatal("SendMessage with a nil callback reported queued")
	}
	eng.Run(eng.Now() + 5)
	if fired != 1 || f.Offered() != 200 {
		t.Fatalf("fired %d, offered %d; want 1, 200", fired, f.Offered())
	}

	// A loss window that drops every message: the bytes are offered, the
	// callback is not queued and never fires.
	lossy := net.NewFlow("lossy", nics["a"], nics["c"], 0)
	nics["c"].SetLossRate(1, 7)
	if lossy.SendMessage(100, func() { fired++ }) {
		t.Fatal("SendMessage reported queued for a message the loss window dropped")
	}
	eng.Run(eng.Now() + 5)
	if fired != 1 || lossy.Offered() != 100 || lossy.Delivered() != 100 || nics["c"].MessagesLost() != 1 {
		t.Fatalf("after drop: fired %d, offered %d, delivered %d, lost %d; want 1, 100, 100, 1",
			fired, lossy.Offered(), lossy.Delivered(), nics["c"].MessagesLost())
	}

	// A closed flow queues nothing and, as Send does, ignores the bytes.
	f.Close()
	if f.SendMessage(100, func() { fired++ }) {
		t.Fatal("SendMessage on a closed flow reported queued")
	}
	eng.Run(eng.Now() + 5)
	if fired != 1 || f.Offered() != 200 {
		t.Fatalf("after close: fired %d, offered %d; want 1, 200", fired, f.Offered())
	}
}
