package main

import (
	"context"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Arrivals returns the intended send offsets of a Poisson process with
// the given rate (ops per second) over d, drawn from rng: residents and
// devices act independently, so inter-arrival gaps are exponential.
func Arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	limit := d.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// Sample is one operation's outcome, as offsets from the phase start.
type Sample struct {
	// Intended is when the schedule said the op should be sent; Start is
	// when a slot actually sent it; End is when it completed.
	Intended, Start, End time.Duration
	Err                  error
}

// Latency is the op's latency timed from its intended send: time spent
// waiting for a busy slot counts, so a stall cannot hide the ops queued
// behind it (coordinated omission).
func (s Sample) Latency() time.Duration { return s.End - s.Intended }

// Late is how long the op waited past its intended send time.
func (s Sample) Late() time.Duration { return s.Start - s.Intended }

// Phase is the outcome of one open-loop run over a schedule.
type Phase struct {
	Samples []Sample
	// Backlog[i] is how many ops were due but unsent when op i was
	// handed to a slot (op i itself excluded).
	Backlog []int
	// Began is when the phase started; Elapsed runs from then to the
	// last completion.
	Began   time.Time
	Elapsed time.Duration
}

// Failed counts ops that ended in an error (timeouts and refusals
// included).
func (p *Phase) Failed() int {
	n := 0
	for _, s := range p.Samples {
		if s.Err != nil {
			n++
		}
	}
	return n
}

// FirstErr returns the first failed op's error, for diagnostics.
func (p *Phase) FirstErr() error {
	for _, s := range p.Samples {
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// Latencies returns every op's latency in milliseconds. A failed op
// contributes +Inf: it missed every latency limit.
func (p *Phase) Latencies() []float64 {
	out := make([]float64, len(p.Samples))
	for i, s := range p.Samples {
		if s.Err != nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(s.Latency())
	}
	return out
}

// Lates returns every op's send lateness in milliseconds.
func (p *Phase) Lates() []float64 {
	out := make([]float64, len(p.Samples))
	for i, s := range p.Samples {
		out[i] = ms(s.Late())
	}
	return out
}

// BacklogMax is the largest backlog seen while dispatching.
func (p *Phase) BacklogMax() int {
	m := 0
	for _, b := range p.Backlog {
		if b > m {
			m = b
		}
	}
	return m
}

// BacklogGrew reports a generator that fell behind its schedule for
// good: the mean backlog over the last quarter of the dispatches exceeds
// the first quarter's by more than the slot count. A transient burst
// drains and does not count; a rate above capacity accumulates.
func (p *Phase) BacklogGrew(slots int) bool {
	n := len(p.Backlog)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(p.Backlog[n-n/4:]) > mean(p.Backlog[:n/4])+float64(slots)
}

// Throughput is completed (successful) ops per second of elapsed time.
func (p *Phase) Throughput() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(len(p.Samples)-p.Failed()) / p.Elapsed.Seconds()
}

// Generator runs schedules open-loop over a fixed number of slots.
type Generator struct {
	// Slots bounds the ops in flight (and so the connections used).
	Slots int
	// Deadline is the per-op deadline a real caller would set, counted
	// from the intended send time.
	Deadline time.Duration
	// tracer, when recording, gets an "op" root span per op, opened at
	// the intended send time; the op finds it with spanFrom.
	tracer *Tracer
}

// Run sends op(i) at each offset in sched, timing each from its
// intended send. Each slot claims the next op, sleeps until it is due
// and sends it itself — no hand-off between goroutines on the send
// path. An op due while every slot is busy waits in the generator
// (Backlog) and is still timed from when it was due.
func (g *Generator) Run(ctx context.Context, sched []time.Duration, op func(ctx context.Context, i int) error) *Phase {
	slots := g.Slots
	if slots < 1 {
		slots = 1
	}
	p := &Phase{Samples: make([]Sample, len(sched)), Backlog: make([]int, len(sched))}
	var mu sync.Mutex
	next := 0
	// claim hands out the next op.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(sched) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	var wg sync.WaitGroup
	start := time.Now()
	p.Began = start
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sleep := func(start time.Time, off time.Duration) { time.Sleep(off - time.Since(start)) }
			if t, err := newTimerfd(); err == nil {
				defer t.close()
				sleep = t.sleepUntil
			}
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if ctx.Err() != nil {
					p.Samples[i] = Sample{Intended: sched[i], Start: sched[i], End: sched[i], Err: ctx.Err()}
					continue
				}
				if time.Since(start) < sched[i] {
					sleep(start, sched[i])
				}
				s := Sample{Intended: sched[i], Start: time.Since(start)}
				p.Backlog[i] = sort.Search(len(sched)-i-1, func(k int) bool { return sched[i+1+k] > s.Start })
				s.Err = g.send(ctx, start.Add(sched[i]), op, i)
				s.End = time.Since(start)
				if s.Err == nil && g.Deadline > 0 && s.Latency() > g.Deadline {
					s.Err = context.DeadlineExceeded
				}
				p.Samples[i] = s
			}
		}()
	}
	wg.Wait()
	p.Elapsed = time.Since(start)
	return p
}

// send runs op(i) under the deadline a real caller would set, counted
// from the intended send time, and releases the op's context as soon as
// the op returns — as a caller's `defer cancel()` does.
func (g *Generator) send(ctx context.Context, intended time.Time, op func(ctx context.Context, i int) error, i int) error {
	if g.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, intended.Add(g.Deadline))
		defer cancel()
	}
	root := g.tracer.BeginAt("op", -1, 0, intended)
	defer g.tracer.End(root)
	return op(withSpan(ctx, root, 0), i)
}

// timerfd is a CLOCK_MONOTONIC timerfd(2) read through the runtime's
// network poller: a sleeping slot parks like any blocked goroutine and
// holds no P, yet wakes with hrtimer precision. The runtime's own timers
// wake ~1ms late on some kernels (more than the ops being paced), and a
// nanosleep(2) would pin a P in a syscall, stalling goroutines queued
// behind it until sysmon retakes it.
type timerfd struct {
	f  *os.File
	fd uintptr
}

func newTimerfd() (*timerfd, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, errno
	}
	return &timerfd{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil waits until start+off.
func (t *timerfd) sleepUntil(start time.Time, off time.Duration) {
	d := off - time.Since(start)
	if d <= 0 {
		return
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	_, _ = t.f.Read(buf[:])
}

func (t *timerfd) close() { _ = t.f.Close() }
