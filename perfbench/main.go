// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed time:
//
//	perfbench --workload stream_probe --seed 1 --seconds 10 --trace 0 \
//	    --hjserve .bench_build/bin/hjserve --scratch .bench_build
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured with no tracing. With --trace 1 it instead times calls into
// each layer's public functions from this package's own code and
// reports the per-layer metrics; the spans are written to
// <scratch>/traces. The last line of standard output is the result
// object; the lines before it name every metric with its unit and
// sample count. perfbench/run.py builds this command and hjserve from
// the source tree and runs it; METRICS.md defines every metric per
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a workload run's result plus the sample count behind each
// metric, for the human-readable lines. It accepts only the metrics
// BENCHMARK.json declares for the run's mode, and takes their units
// from there.
type report struct {
	result
	units   map[string]string
	samples map[string]int
}

func newReport(units map[string]string) *report {
	return &report{result: result{Metrics: map[string]metric{}}, units: units, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not declared in BENCHMARK.json for this mode")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// complete checks that every declared metric was reported. With
// zeroFill, as in a traced run, a metric of a layer the workload does
// not use reads 0 with no samples instead.
func (r *report) complete(zeroFill bool) error {
	var missing []string
	for name := range r.units {
		if _, ok := r.Metrics[name]; ok {
			continue
		}
		if zeroFill {
			r.set(name, 0, 0)
		} else {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not reported: %v", missing)
	}
	return nil
}

// declaredUnits reads the metric names and units BENCHMARK.json
// declares: the per_layer list for a traced run, else end_to_end.
func declaredUnits(path string, trace bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	units := map[string]string{}
	for _, m := range list {
		units[m.Name] = m.Unit
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return units, nil
}

// attempt counts one operation and whether it failed: errored, was
// shed, or returned a wrong result.
func (r *report) attempt(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	hjserve  string            // path of the hjserve binary (serve_mix)
	scratch  string            // spill files and trace dumps go under here
	units    map[string]string // declared metric units for this mode
}

const (
	// Each run performs its set-up at least setupReps times, and more
	// until setupFor has passed (at most maxSetupReps); setup_s is the
	// median, so a one-off stall cannot move it.
	setupReps    = 5
	setupFor     = 2 * time.Second
	maxSetupReps = 40
	// warmup is the untimed time each run spends on its own operations
	// before it starts measuring.
	warmup = 2 * time.Second
)

func main() { os.Exit(run()) }

func run() int {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "stream_probe | spill_skew | serve_mix")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.hjserve, "hjserve", "", "hjserve binary (serve_mix)")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for spill files and traces")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark declaration to report against")
	flag.Parse()
	if flag.NArg() > 0 || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	o.seconds, o.trace = time.Duration(secs)*time.Second, trace == 1
	scratch, err := filepath.Abs(o.scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.scratch = scratch
	if o.units, err = declaredUnits(*spec, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	h := hostStamp()
	hb, _ := json.Marshal(h) // a struct of strings, ints and bools always marshals
	fmt.Printf("host %s\n", hb)
	cpu0 := readCPUTicks()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var rep *report
	if cfg, ok := batchWorkloads[o.workload]; ok {
		rep, err = runBatch(cfg, o, tr)
	} else if o.workload == "serve_mix" {
		rep, err = runServe(o, tr)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err == nil {
		err = rep.complete(o.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(o.scratch, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path, h); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace %s (%d spans)\n", path, len(tr.spans))
	}
	rep.Correct = rep.Failed == 0

	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-30s %14.4f %-10s n=%d\n", n, m.Value, m.Unit, rep.samples[n])
	}
	fmt.Printf("cpu steal %.1f%% of the machine's CPU time during the run\n", stealShare(cpu0, readCPUTicks())*100)
	fmt.Printf("attempted=%d failed=%d failed_ratio=%.6f\n",
		rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// moreSetups reports whether a run that has done n set-ups since start
// should do another.
func moreSetups(n int, start time.Time) bool {
	return n < setupReps || (n < maxSetupReps && time.Since(start) < setupFor)
}

// settle returns freed heap to the kernel, so one phase's garbage does
// not inflate the next phase's page faults or the peak RSS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
