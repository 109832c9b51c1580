package main

import "time"

// cpuMark is the user+system CPU every process of the run has used so
// far, the generator included. A process that has exited keeps its
// final reading and one started later counts from zero, so the
// difference of two marks is the CPU the whole system spent between
// them, across a kill -9 or a restart too.
func (d *runner) cpuMark() time.Duration {
	total := selfCPU()
	for _, p := range d.procList() {
		total += p.cpu()
	}
	return total
}

// measured runs one phase at the nominal rate and records its
// cpu_us_per_op: the CPU all processes spent over the phase divided by
// the ops it completed, so amortised work — snapshots, fsync batches,
// garbage collection, peer pulls — is charged to the ops that caused
// it.
func (d *runner) measured(phase func() *Phase) *Phase {
	c0 := d.cpuMark()
	p := phase()
	cpu := d.cpuMark() - c0
	done := len(p.Samples) - p.Failed()
	d.check(done > 0, "cpu_us_per_op: no op completed")
	if done > 0 {
		d.set("cpu_us_per_op", us(cpu)/float64(done))
	}
	return p
}
