// Command perfbench is the repository's end-to-end serving benchmark. It
// runs firstaid-serve as a separate process, drives one workload over
// loopback HTTP from at most two connections, checks every reply and the
// server's own counts, and prints the end-to-end metrics. With -trace 1 it
// instead runs the same workload in process, timing each layer's public
// calls, and prints the per-layer metrics.
//
// Usage (run.sh builds the benchmark and the server, then runs this):
//
//	perfbench -server BIN -workload NAME -seed N -seconds S -trace 0|1 \
//	    [-spans FILE]
//
// The last line of standard output is one JSON object:
// {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}. A run
// whose outputs fail a check prints no result and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runTimeout bounds a whole run. With the server's bounded stop after it,
// a run that hangs still exits within three minutes.
const runTimeout = 150 * time.Second

// metricDef is one reported metric. A per-layer metric also names the
// end-to-end metric it should move and the workload where that shows.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

var endToEnd = []metricDef{
	{name: "throughput_ev_s", unit: "ev/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "recovery_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_ev", unit: "us", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// Workload names in the per-layer predictions.
const (
	onClean   = "apache-batch-clean"
	onHostile = "apache-batch-hostile"
	onSquid   = "squid-events-json"
	onBatches = onClean + ", " + onHostile
	onAll     = "all"
)

var perLayer = []metricDef{
	{"fleet.handler_us", "us", "lower", "latency_p50_ms", onSquid},
	{"fleet.decode_us_per_kev", "us", "lower", "latency_p50_ms", onBatches},
	{"fleet.queue_wait_ms_p50", "ms", "lower", "latency_p50_ms", onHostile},
	{"fleet.queue_wait_ms_p99", "ms", "lower", "latency_p99_ms", onHostile},
	{"fleet.blocked", "count", "lower", "latency_p99_ms", onHostile},
	{"replay.append_us_per_kev", "us", "lower", "throughput_ev_s", onClean},
	{"core.ingest_us_per_ev", "us", "lower", "throughput_ev_s", onAll},
	{"core.step_us_per_ev", "us", "lower", "cpu_us_per_ev", onSquid},
	{"heap.mallocs_per_ev", "count", "lower", "cpu_us_per_ev", onSquid},
	{"checkpoint.take_us", "us", "lower", "throughput_ev_s", onClean},
	{"checkpoint.allocext_state_us", "us", "lower", "throughput_ev_s", onClean},
	{"checkpoint.vmem_us", "us", "lower", "throughput_ev_s", onClean},
	{"checkpoint.share", "ratio", "lower", "cpu_us_per_ev", onClean},
	{"ckpt.cow_pages_per_take", "count", "lower", "cpu_us_per_ev", onClean},
	{"checkpoint.taken_per_kev", "count", "lower", "cpu_us_per_ev", onClean},
	{"spec.standby_refresh_us", "us", "lower", "throughput_ev_s", onClean},
	{"spec.standby_refresh_us_first", "us", "lower", "throughput_ev_s", onClean},
	{"spec.standby_refresh_us_last", "us", "lower", "throughput_ev_s", onClean},
	{"spec.refresh_share", "ratio", "lower", "throughput_ev_s", onClean},
	{"spec.won_ratio", "ratio", "higher", "recovery_p50_ms", onHostile},
	{"core.recovery_ms", "ms", "lower", "recovery_p50_ms", onHostile},
	{"diag.rollbacks_per_recovery", "count", "lower", "recovery_p50_ms", onHostile},
	{"runtime.gc_cpu_share", "ratio", "lower", "cpu_us_per_ev", onAll},
	{"runtime.alloc_bytes_per_ev", "B", "lower", "peak_rss_mb", onAll},
	{"layers.coverage", "ratio", "higher", "", onAll},
	{"tracing.overhead", "ratio", "lower", "", onAll},
}

// result is the benchmark's last line of output.
type result struct {
	attempted int
	metrics   map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				if r.metrics == nil {
					r.metrics = map[string]metricValue{}
				}
				r.metrics[name] = metricValue{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

// complete reports a metric of want the run did not set.
func (r *result) complete(want []metricDef) error {
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%d metrics set, %d expected", len(r.metrics), len(want))
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			return fmt.Errorf("metric %s not set", m.name)
		}
	}
	return nil
}

func (r *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, r.attempted, 0, r.metrics})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Int("seconds", 34, "run length: fixes each workload's event count")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics in process")
		bin     = fs.String("server", "", "firstaid-serve binary (end-to-end runs)")
		spans   = fs.String("spans", "", "traced run: write every span to this file at the end")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	spec, err := findSpec(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		return fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	// A run serves its workload reps times in about -seconds.
	events := int(float64(*seconds) / reps * spec.rate)
	w, err := generate(spec, *seed, events)
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()

	var res *result
	want := endToEnd
	if *traced == 1 {
		want = perLayer
		// The traced run calls into the program in process and checks the
		// deadline only between passes; a pass that hangs is abandoned
		// with the process, which has no child to stop.
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = tracedRun(ctx, w, *spans, stderr)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			return fail(fmt.Errorf("traced run: %w", ctx.Err()))
		}
	} else {
		if *bin == "" {
			return fail(errors.New("-server is required"))
		}
		res, err = serveRun(ctx, w, *bin, stderr)
	}
	if err == nil {
		err = res.complete(want)
	}
	if err != nil {
		return fail(err)
	}
	out, err := res.line()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}
