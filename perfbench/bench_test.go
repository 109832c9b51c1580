package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"homeconnect/internal/service"
)

func TestQuantileNeedsEnoughSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := Quantile(xs[:99], 0.99); err == nil {
		t.Fatal("p99 of 99 samples should be refused")
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.9, 90}} {
		got, err := Quantile(xs, c.q)
		if err != nil || got != c.want {
			t.Fatalf("Quantile(1..100, %v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if got, err := Quantile([]float64{3, 1}, 0.5); err != nil || got != 1 {
		t.Fatalf("p50 of {3,1} = %v, %v; want 1 (nearest rank)", got, err)
	}
	if _, err := Quantile([]float64{1}, 0.5); err == nil {
		t.Fatal("p50 of one sample should be refused")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := Spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Spread(1..10) = %v, want 1.0", got)
	}
	if got := Spread([]float64{2, 2, 2, 2}); got != 0 {
		t.Fatalf("Spread of constants = %v, want 0", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

// TestIntendedSendTiming injects a stall: with one slot, every op
// queued behind a 30ms op must be charged the wait, timed from when it
// was due, not from when the slot got to it.
func TestIntendedSendTiming(t *testing.T) {
	sched := make([]time.Duration, 20)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	g := Generator{Slots: 1}
	p := g.Run(context.Background(), sched, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	s := p.Samples[1]
	if s.Latency() < 28*time.Millisecond {
		t.Fatalf("op 1 latency %v: the stall ahead of it was omitted", s.Latency())
	}
	if service := s.End - s.Start; service > 10*time.Millisecond {
		t.Fatalf("op 1 service time %v, want ~0", service)
	}
	if s.Late() < 28*time.Millisecond {
		t.Fatalf("op 1 lateness %v, want ≥ 28ms", s.Late())
	}
	if p.BacklogMax() < 15 {
		t.Fatalf("backlog max %d, want the ~18 ops due during the stall", p.BacklogMax())
	}
	if p.Failed() != 0 {
		t.Fatalf("%d failures", p.Failed())
	}
}

func TestDeadlineCountsFromIntendedSend(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond}
	g := Generator{Slots: 1, Deadline: 10 * time.Millisecond}
	p := g.Run(context.Background(), sched, func(ctx context.Context, i int) error {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	if p.Failed() != 2 {
		t.Fatalf("failed = %d, want both ops past their deadline", p.Failed())
	}
	if lat := p.Latencies(); !math.IsInf(lat[0], 1) {
		t.Fatalf("a failed op's latency = %v, want +Inf (missed every limit)", lat[0])
	}
}

func TestBacklogGrowth(t *testing.T) {
	steady := &Phase{Backlog: make([]int, 100)}
	for i := range steady.Backlog {
		steady.Backlog[i] = i % 3 // bursts that drain
	}
	if steady.BacklogGrew(2) {
		t.Fatal("a draining backlog was reported as growing")
	}
	growing := &Phase{Backlog: make([]int, 100)}
	for i := range growing.Backlog {
		growing.Backlog[i] = i / 4
	}
	if !growing.BacklogGrew(2) {
		t.Fatal("an accumulating backlog was not detected")
	}
}

func TestLadderStepCriteria(t *testing.T) {
	mk := func(latMs float64, failed int) *Phase {
		p := &Phase{Backlog: make([]int, 200)}
		for i := 0; i < 200; i++ {
			s := Sample{End: time.Duration(latMs * float64(time.Millisecond))}
			if i < failed {
				s.Err = context.DeadlineExceeded
			}
			p.Samples = append(p.Samples, s)
		}
		return p
	}
	holds := func(p *Phase) bool {
		p99, err := Quantile(p.Latencies(), 0.99)
		return err == nil && stepHolds(p, p99, 5, 2)
	}
	if !holds(mk(1, 0)) {
		t.Fatal("a step inside the limit failed")
	}
	if holds(mk(6, 0)) {
		t.Fatal("a step over the p99 limit held")
	}
	if stepHolds(mk(1, 3), 1, 5, 2) {
		t.Fatal("a step with failures over 0.1% held")
	}
	grew := mk(1, 0)
	for i := range grew.Backlog {
		grew.Backlog[i] = i
	}
	if holds(grew) {
		t.Fatal("a step whose backlog grew held")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped at 100
		{Name: "d", Start: 12, End: 18, Parent: 1},
	}
	self := spanSelfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestJoinAndBreakdown(t *testing.T) {
	local := []Span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "vsg.call", Start: 5, End: 95, Parent: 0, RID: 7},
		{Name: "vsg.callremote", Start: 10, End: 90, Parent: 1, RID: 7},
		{Name: "op", Start: 200, End: 300, Parent: -1},
	}
	remote := []Span{
		{Name: "device.invoke", Start: 40, End: 50, Parent: -1, RID: 7},
		{Name: "device.invoke", Start: 240, End: 250, Parent: -1}, // no request id
	}
	all := Join(local, remote)
	if all[4].Parent != 2 {
		t.Fatalf("remote span joined under %d, want the innermost enclosing span 2", all[4].Parent)
	}
	if all[5].Parent != -1 {
		t.Fatalf("a span without request id joined under %d", all[5].Parent)
	}
	layers, ops := OpBreakdown(all)
	if ops != 2 {
		t.Fatalf("%d op trees, want 2", ops)
	}
	// The first op's layers sum to its 100ns.
	sum := layers["op"][0] + layers["vsg.call"][0] + layers["vsg.callremote"][0] + layers["device.invoke"][0]
	if len(layers["vsg.call"]) != 1 || sum != 100 {
		t.Fatalf("layers %v do not sum to the op's duration", layers)
	}
	us := time.Microsecond
	if got := LayerSum(map[string][]time.Duration{"x": {10 * us, 10 * us}, "y": {4 * us}}, 2); got != 12*us {
		t.Fatalf("LayerSum = %v, want 10 + 4/2", got)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := Arrivals(rand.New(rand.NewSource(5)), 1000, 2*time.Second)
	b := Arrivals(rand.New(rand.NewSource(5)), 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("%d arrivals in 2s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestRegGenKeepsAckedStateConsistent(t *testing.T) {
	g := newRegGen(rand.New(rand.NewSource(9)), churnMix, 600, 300)
	live := make(map[int]bool)
	for i := 0; i < 300; i++ {
		live[i] = true
	}
	last := make(map[int]int)
	ops := append(g.take(2000), g.take(2000)...)
	for i, o := range ops {
		switch o.kind {
		case regJoin:
			if live[o.device] {
				t.Fatalf("op %d joins live device %d", i, o.device)
			}
			live[o.device] = true
		case regRenew, regLeave:
			if !live[o.device] {
				t.Fatalf("op %d touches device %d that is not live", i, o.device)
			}
			if o.kind == regLeave {
				live[o.device] = false
			}
		default:
			continue
		}
		if j, ok := last[o.device]; ok && i-j < recentWindow {
			t.Fatalf("ops %d and %d write device %d within the recent window", j, i, o.device)
		}
		last[o.device] = i
	}
}

func TestCallsCarryRequestIDs(t *testing.T) {
	calls := makeCalls(rand.New(rand.NewSource(3)), 500, 8, 1000)
	for _, c := range calls {
		want := c.rid
		if c.op == opPing {
			want = 0
		}
		if got := argRID(c.op, c.args); got != want {
			t.Fatalf("%s carries rid %d, want %d", c.op, got, want)
		}
		if err := checkEcho(c, echoResultOf(c)); err != nil {
			t.Fatal(err)
		}
	}
}

// echoResultOf is what the echo device answers to c.
func echoResultOf(c callInput) service.Value {
	if len(c.args) == 0 {
		return service.Void()
	}
	return c.args[0]
}

// TestPresetMix holds the registry mixes to the neighborhood presets
// they are derived from, and the generator to the mix.
func TestPresetMix(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if m := churnMix; !near(m.register, 0.5/1.1) || !near(m.leave, 0.4/1.1) || !near(m.find, 0.2/1.1) {
		t.Fatalf("churn mix %+v, want 0.5:0.4:0.2 normalised", m)
	}
	if m := failoverMix; !near(m.register, 0.5/5.9) || !near(m.leave, 0.4/5.9) || !near(m.find, 5/5.9) {
		t.Fatalf("failover mix %+v, want 0.5:0.4:5 normalised", m)
	}
	ops := newRegGen(rand.New(rand.NewSource(4)), churnMix, 3000, 1000).take(20000)
	var kinds [4]float64
	for _, o := range ops {
		kinds[o.kind]++
	}
	n := float64(len(ops))
	if reg := (kinds[regJoin] + kinds[regRenew]) / n; math.Abs(reg-churnMix.register) > 0.02 {
		t.Fatalf("register share %.3f, want %.3f", reg, churnMix.register)
	}
	if find := kinds[regFind] / n; math.Abs(find-churnMix.find) > 0.02 {
		t.Fatalf("find share %.3f, want %.3f", find, churnMix.find)
	}
	if kinds[regRenew] == 0 || kinds[regJoin] == 0 {
		t.Fatalf("register events split %v joins / %v renewals; want both", kinds[regJoin], kinds[regRenew])
	}
}
