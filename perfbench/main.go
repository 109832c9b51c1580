// Command perfbench is homeconnect's end-to-end benchmark: homes
// assembled with the production constructors run as separate OS
// processes on loopback TCP, and a single open-loop load generator
// drives one of four workloads against them — home-call, away-call,
// churn or failover — then prints every metric with its unit, and as
// its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same workload runs traced and reports per-layer numbers instead. A
// failed output check prints correct=false and exits 1.
//
//	perfbench -workload home-call -seed 1 -seconds 40 -trace 0
//
// perfbench also serves as the system under test: "perfbench home ..."
// runs one home process (see homeMain). "perfbench spread FILE..."
// summarises saved runs: per metric, the median and the inter-quartile
// spread the benchmark's bounds are stated in. See README.md for how to
// read each metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "home" {
		if err := homeMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench home:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "home-call, away-call, churn or failover")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for run state (data dirs, logs)")
	flag.Parse()

	prof, ok := profiles[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := newRunner(*workload, prof, *seed, *seconds, *trace == 1, dir, exe)
	rep, err := d.run()
	d.shutdown()
	if err == nil {
		_ = os.RemoveAll(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v (logs kept in %s)\n", *workload, err, dir)
		os.Exit(1)
	}
	for _, set := range []struct {
		ms  map[string]metric
		tag string
	}{{rep.Metrics, ""}, {rep.Info, " (not gated)"}} {
		names := make([]string, 0, len(set.ms))
		for n := range set.ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-28s %14.4f %s%s\n", n, set.ms[n].Value, set.ms[n].Unit, set.tag)
		}
	}
	for _, f := range d.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// spreadMain prints, for each metric in the result lines of the given
// files (the last line of each saved run), the run count, the median
// and the spread (inter-quartile range over median).
func spreadMain(files []string) error {
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return err
		}
		var last string
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				last = line
			}
		}
		fh.Close()
		var rep report
		if err := json.Unmarshal([]byte(last), &rep); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s n=%-3d median %12.4f %-8s spread %.3f\n", n, len(values[n]), Median(values[n]), units[n], Spread(values[n]))
	}
	return nil
}
