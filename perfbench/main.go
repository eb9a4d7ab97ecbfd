// Command perfbench is the repository benchmark. It sets up one workload,
// measures it for a fixed time, checks every output the program produces,
// and prints its metrics by name and unit, ending with one JSON line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it measures an untraced and a traced half and reports the
// per-layer metrics folded from the spans and counters the program already
// emits through its public Trace/Metrics options. README.md lists every
// metric, its unit and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"concat/internal/core"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is recorded in BENCHMARK.json as well; keep the two in step.
	why   string
	setup func(seed int64, traced bool) (instance, error)
}

// instance is a set-up workload, ready to be measured.
type instance interface {
	// warmup runs the workload's warm-up pass; nothing it does is reported.
	warmup() error
	// measure runs ops until the deadline (at least one). With a non-nil
	// layers it runs them traced and folds their spans and counters into it.
	measure(deadline time.Time, lay *layers) (*phase, error)
	close()
}

// phase is one measured stretch of a workload.
type phase struct {
	latMS []float64 // wall time of every timed unit that completed
	// ops is the number of completed ops when it differs from len(latMS):
	// the service times rounds of four campaigns but counts campaigns.
	ops       int
	attempted int
	failed    int // ops that errored, were refused, or produced wrong output
	wall      time.Duration
	mallocs   uint64
	allocMB   float64
	gcCycles  uint32
	gcPauseMS float64
	// named holds the workload's own end-to-end figures (table2_s,
	// campaign_p50_ms, ...) printed above the JSON line.
	named []namedValue
	// check, when set, verifies outputs after the clock and the memory
	// figures have stopped, adding to failed.
	check func()
	// ledger holds counts that must repeat exactly between ops of the same
	// code; measure records a drift as a failed op.
	ledger map[string]int64
}

type namedValue struct {
	name, unit string
	value      float64
	note       string
}

func (p *phase) opCount() int {
	if p.ops > 0 {
		return p.ops
	}
	return len(p.latMS)
}

func (p *phase) add(name, unit string, v float64, note string) {
	p.named = append(p.named, namedValue{name, unit, v, note})
}

var workloads = []workload{
	{"paper-tables", whyTables, setupTables(false)},
	{"paper-tables-pool", whyTablesPool, setupTables(true)},
	{"service-mixed", whyService, setupService},
	{"impact-edit", whyImpact, setupImpact},
}

// A run sets its workload up at least minSetups times and until a second
// has gone into set-up, at most maxSetups times; setup_s is the median,
// and the last instance is the one measured.
const minSetups, maxSetups = 5, 25

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

func main() {
	// Pool isolation re-executes this binary as its case server.
	core.MaybeServeCase()
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	fmt.Printf("workload %s  seed %d  cpus %d  %s  trace %v\n", w.name, seed, runtime.NumCPU(), runtime.Version(), traced)
	var inst instance
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || spent < time.Second && len(setups) < maxSetups {
		start := time.Now()
		next, err := w.setup(seed, traced)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += time.Since(start)
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	defer inst.close()
	if err := inst.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setupS := median(setups)

	if !traced {
		ph, retainedMB, err := timedPhase(inst, dur, nil)
		if err != nil {
			return nil, err
		}
		printNamed(ph)
		ops := ph.opCount()
		fmt.Printf("%-22s %14.4f %-6s\n", "ops_per_s", float64(ops)/ph.wall.Seconds(), "1/s")
		tail, tailLabel := tailOf(ph.latMS)
		fmt.Printf("op_tail_ms is %s\n", tailLabel)
		return &result{
			Correct:   ph.failed == 0,
			Attempted: ph.attempted,
			Failed:    ph.failed,
			Metrics: map[string]metric{
				"setup_s":          {setupS, "s"},
				"op_p50_ms":        {median(ph.latMS), "ms"},
				"op_tail_ms":       {tail, "ms"},
				"ops_per_s":        {float64(ops) / ph.wall.Seconds(), "1/s"},
				"allocs_per_op":    {float64(ph.mallocs) / float64(ops), "count"},
				"retained_heap_mb": {retainedMB, "MB"},
			},
		}, nil
	}

	// Traced run: an untraced half gives the runtime figures and the base of
	// the tracing overhead, a traced half gives the layer split. Both halves'
	// outputs go through the same checks, so traced output must equal
	// untraced output byte for byte.
	plain, _, err := timedPhase(inst, dur/2, nil)
	if err != nil {
		return nil, err
	}
	lay := newLayers()
	tr, _, err := timedPhase(inst, dur/2, lay)
	if err != nil {
		return nil, err
	}
	for k, v := range tr.ledger {
		if was, ok := plain.ledger[k]; ok && was != v {
			fail(tr, "ledger count %s is %d traced, %d untraced", k, v, was)
		}
	}
	printNamed(tr)
	ops := float64(plain.opCount())
	lay.set("runtime.alloc_mb", plain.allocMB/ops)
	lay.set("runtime.gc_cycles", float64(plain.gcCycles)/ops)
	lay.set("runtime.gc_pause_ms", plain.gcPauseMS/ops)
	lay.set("obs.trace_overhead_ratio", median(tr.latMS)/median(plain.latMS))
	metrics := map[string]metric{}
	for _, l := range perLayer {
		metrics[l.name] = metric{lay.vals[l.name], l.unit}
	}
	return &result{
		Correct:   plain.failed == 0 && tr.failed == 0,
		Attempted: plain.attempted + tr.attempted,
		Failed:    plain.failed + tr.failed,
		Metrics:   metrics,
	}, nil
}

// timedPhase measures one phase between two forced collections and returns
// it with the heap still live after the second collection.
func timedPhase(inst instance, dur time.Duration, lay *layers) (*phase, float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	ph, err := inst.measure(start.Add(dur), lay)
	if err != nil {
		return nil, 0, err
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	ph.mallocs = after.Mallocs - before.Mallocs
	ph.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	ph.gcCycles = after.NumGC - before.NumGC
	ph.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ph.check != nil {
		ph.check()
	}
	if len(ph.latMS) == 0 {
		return nil, 0, fmt.Errorf("no op completed in %v", dur)
	}
	return ph, float64(after.HeapAlloc) / 1e6, nil
}

func printNamed(ph *phase) {
	fmt.Printf("attempted %d  failed %d  failed_ratio %.4f\n", ph.attempted, ph.failed,
		float64(ph.failed)/float64(max(ph.attempted, 1)))
	for _, n := range ph.named {
		fmt.Printf("%-22s %14.4f %-6s %s\n", n.name, n.value, n.unit, n.note)
	}
	keys := make([]string, 0, len(ph.ledger))
	for k := range ph.ledger {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("ledger %-32s %d\n", k, ph.ledger[k])
	}
}

// checkLedger records an op's exact counts in the phase, or returns a
// description of the first count that differs from an earlier op's.
func checkLedger(ph *phase, counts map[string]int64) string {
	if ph.ledger == nil {
		ph.ledger = counts
		return ""
	}
	for k, v := range counts {
		if was, ok := ph.ledger[k]; ok && was != v {
			return fmt.Sprintf("ledger count %s drifted: %d, earlier %d", k, v, was)
		}
		ph.ledger[k] = v
	}
	return ""
}

// keepGoing reports whether another op fits before the deadline, judged by
// the median op so far: the phase then lasts about as long as asked.
func keepGoing(deadline time.Time, ph *phase) bool {
	if ph.attempted == 0 {
		return true
	}
	half := time.Duration(median(ph.latMS) / 2 * float64(time.Millisecond))
	return time.Now().Add(half).Before(deadline)
}

// fail reports a failed op on standard error, a few at most per phase.
func fail(ph *phase, format string, args ...any) {
	ph.failed++
	if ph.failed <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf is the highest percentile that still has at least ten samples
// beyond it, but never less than the median: with fewer than 21 samples no
// percentile above the median qualifies, and the median is reported. The
// label says which, with the sample count.
func tailOf(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 21 {
		return median(s), fmt.Sprintf("the median of %d samples: no percentile above it has 10 beyond it", n)
	}
	idx := n - 11 // s[idx] has exactly ten samples beyond it
	return s[idx], fmt.Sprintf("p%.1f of %d samples (10 beyond it)", 100*float64(idx+1)/float64(n), n)
}
