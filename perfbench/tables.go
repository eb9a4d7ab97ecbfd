package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"concat/internal/analysis"
	"concat/internal/components/oblist"
	"concat/internal/components/sortlist"
	"concat/internal/driver"
	"concat/internal/experiments"
	"concat/internal/history"
	"concat/internal/obs"
	"concat/internal/testexec"
)

const (
	whyTables     = "the paper's evaluation, Tables 2 and 3 in-process: case execution, dispatch, BIT checks and the kill decision, bypassing store, serve, tspec and isolation"
	whyTablesPool = "the same campaigns under pool isolation: identical work and output, so the difference from paper-tables is the isolation transport"
)

// The per-operator rows of Tables 2 and 3 as EXPERIMENTS.md publishes them
// (seed 42). The inputs are the paper's fixed evaluation, so --seed does not
// change them.
var (
	//go:embed expected/table2.txt
	wantTable2 []byte
	//go:embed expected/table3.txt
	wantTable3 []byte
)

type tables struct {
	setup *experiments.Setup
	pool  bool
	// caseIndex maps a derived-suite case ID to its position, for counting
	// the case runs up to each mutant's first kill.
	caseIndex map[string]int
	// render2/render3 are the full rendered tables of the first op; every
	// later op, traced or not, must reproduce them byte for byte.
	render2, render3 []byte
}

func setupTables(pool bool) func(int64, bool) (instance, error) {
	return func(_ int64, _ bool) (instance, error) {
		cfg := experiments.Default()
		cfg.Parallelism = runtime.NumCPU()
		if pool {
			cfg.Isolation = testexec.IsolatePool // pool size = Parallelism
		}
		s, err := experiments.NewSetup(cfg)
		if err != nil {
			return nil, err
		}
		idx := map[string]int{}
		for i, tc := range s.Derived.Suite.Cases {
			idx[tc.ID] = i
		}
		return &tables{setup: s, pool: pool, caseIndex: idx}, nil
	}
}

func (t *tables) close() {}

func (t *tables) warmup() error {
	ph := &phase{}
	if _, err := t.op(ph, nil, nil); err != nil {
		return err
	}
	if ph.failed > 0 {
		return fmt.Errorf("the warm-up pass produced wrong tables")
	}
	return nil
}

func (t *tables) measure(deadline time.Time, lay *layers) (*phase, error) {
	ph := &phase{}
	var t2, t3 []float64
	var campaignS, runs, useful, mutants float64
	var met *obs.Metrics
	if lay != nil {
		met = obs.NewMetrics()
	}
	for keepGoing(deadline, ph) {
		o, err := t.op(ph, lay, met)
		if err != nil {
			return nil, err
		}
		t2 = append(t2, o.d2.Seconds())
		t3 = append(t3, o.d3.Seconds())
		campaignS += (o.d2 + o.d3).Seconds()
		runs += float64(o.runs)
		useful += float64(o.useful)
		mutants += float64(o.mutants)
	}
	ph.add("table2_s", "s", median(t2), "median")
	ph.add("table3_s", "s", median(t3), "median")
	ph.add("verdicts_per_s", "1/s", mutants/campaignS, "mutant verdicts per second of campaign")
	if lay != nil {
		ops := len(ph.latMS)
		lay.setSpanLayers(ops)
		lay.setPoolCounters(met, ops)
		lay.set("analysis.mutants", mutants/float64(ops))
		lay.set("analysis.case_runs", runs/float64(ops))
		lay.set("analysis.useful_case_ratio", useful/runs)
		if err := t.setupLayers(lay); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// tablesOp is what one Tables 2+3 pair did.
type tablesOp struct {
	d2, d3       time.Duration
	mutants      int
	runs, useful int64
}

// op runs Table 2 then Table 3 and checks both against the published rows,
// against the first op's full rendering, and against the exact-count
// ledger.
func (t *tables) op(ph *phase, lay *layers, met *obs.Metrics) (tablesOp, error) {
	ph.attempted++
	var batches0 int64
	if met != nil {
		batches0 = met.Snapshot().Counters["pool.batches"]
	}
	start := time.Now()
	r2, d2, err := t.campaign(t.setup.Experiment1, lay, met)
	if err != nil {
		return tablesOp{}, err
	}
	r3, d3, err := t.campaign(t.setup.Experiment2, lay, met)
	if err != nil {
		return tablesOp{}, err
	}
	ph.latMS = append(ph.latMS, msSince(start))

	var problems []string
	for _, c := range []struct {
		name   string
		res    *analysis.Result
		want   []byte
		render *[]byte
	}{{"table2", r2, wantTable2, &t.render2}, {"table3", r3, wantTable3, &t.render3}} {
		if got := operatorRows(c.res.Tabulate()); !bytes.Equal(got, c.want) {
			problems = append(problems, fmt.Sprintf("%s differs from EXPERIMENTS.md:\n%s", c.name, got))
		}
		var full bytes.Buffer
		if err := c.res.Tabulate().Render(&full); err != nil {
			return tablesOp{}, err
		}
		if *c.render == nil {
			*c.render = full.Bytes()
		} else if !bytes.Equal(*c.render, full.Bytes()) {
			problems = append(problems, c.name+" rendering differs from the first op's")
		}
	}
	runs2, useful2 := t.caseRuns(r2)
	runs3, useful3 := t.caseRuns(r3)
	counts := map[string]int64{
		"analysis.case_runs.table2":   runs2,
		"analysis.useful_runs.table2": useful2,
		"analysis.case_runs.table3":   runs3,
		"analysis.useful_runs.table3": useful3,
	}
	if t.pool && met != nil {
		counts["isolation.batches"] = met.Snapshot().Counters["pool.batches"] - batches0
	}
	if drift := checkLedger(ph, counts); drift != "" {
		problems = append(problems, drift)
	}
	if len(problems) > 0 {
		fail(ph, "%s", strings.Join(problems, "\n"))
	}
	return tablesOp{d2: d2, d3: d3, mutants: len(r2.Mutants) + len(r3.Mutants),
		runs: runs2 + runs3, useful: useful2 + useful3}, nil
}

// campaign runs one experiment, traced into a fresh collector that is
// folded and dropped right after, so only one table's spans are held.
func (t *tables) campaign(run func(io.Writer) (*analysis.Result, error), lay *layers, met *obs.Metrics) (*analysis.Result, time.Duration, error) {
	var col *obs.Tracer
	if lay != nil {
		col = obs.NewCollector()
	}
	t.setup.Config.Trace, t.setup.Config.Metrics = col, met
	defer func() { t.setup.Config.Trace, t.setup.Config.Metrics = nil, nil }()
	start := time.Now()
	res, err := run(nil)
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if lay != nil {
		if err := col.Err(); err != nil {
			return nil, 0, err
		}
		lay.fold(col.Spans())
	}
	return res, d, nil
}

// caseRuns counts the cases each mutant ran (the whole suite) and the ones
// that were useful: up to and including the first killing case, or all of
// them for a survivor.
func (t *tables) caseRuns(res *analysis.Result) (runs, useful int64) {
	n := int64(len(t.setup.Derived.Suite.Cases))
	for _, m := range res.Mutants {
		runs += n
		if m.Killed {
			useful += int64(t.caseIndex[m.KillingCase] + 1)
		} else {
			useful += n
		}
	}
	return runs, useful
}

// operatorRows renders a table's per-operator block in EXPERIMENTS.md's
// layout.
func operatorRows(tab *analysis.Table) []byte {
	header := []string{"Operator"}
	rows := [][]string{{"#mutants"}, {"#killed"}, {"#equivalent"}, {"Score"}}
	addCol := func(name string, r analysis.OperatorRow) {
		header = append(header, name)
		rows[0] = append(rows[0], fmt.Sprint(r.Mutants))
		rows[1] = append(rows[1], fmt.Sprint(r.Killed))
		rows[2] = append(rows[2], fmt.Sprint(r.Equivalent))
		rows[3] = append(rows[3], fmt.Sprintf("%.1f%%", 100*r.Score()))
	}
	for _, r := range tab.Rows {
		addCol(strings.TrimPrefix(r.Operator.String(), "IndVar"), r)
	}
	addCol("Total", tab.Total)
	var b bytes.Buffer
	for _, line := range append([][]string{header}, rows...) {
		fmt.Fprintf(&b, "    %-12s", line[0])
		for i, cell := range line[1:] {
			fmt.Fprintf(&b, "%*s", max(len(header[i+1]), 6)+2, cell)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// setupLayers times the generation layers the set-up calls, median of a
// few calls each, with the configuration the experiments use.
func (t *tables) setupLayers(lay *layers) error {
	cfg := t.setup.Config
	var gen, derive, trans []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		parent, err := driver.Generate(oblist.Spec(), cfg.ParentOpts)
		if err != nil {
			return err
		}
		gen = append(gen, msSince(start))
		start = time.Now()
		if _, err := history.Derive(oblist.Spec(), sortlist.Spec(), parent, cfg.ChildOpts); err != nil {
			return err
		}
		derive = append(derive, msSince(start))
		start = time.Now()
		pg, err := oblist.Spec().TFM()
		if err != nil {
			return err
		}
		if _, err := pg.Transactions(cfg.ParentOpts.Enum); err != nil {
			return err
		}
		cg, err := sortlist.Spec().TFM()
		if err != nil {
			return err
		}
		if _, err := cg.Transactions(cfg.ChildOpts.Enum); err != nil {
			return err
		}
		trans = append(trans, msSince(start))
	}
	lay.set("driver.generate_ms", median(gen))
	lay.set("history.derive_ms", median(derive))
	lay.set("tfm.transactions_ms", median(trans))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
