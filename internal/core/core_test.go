package core

import (
	"bytes"
	"strings"
	"testing"

	"concat/internal/components/account"
	"concat/internal/components/oblist"
	"concat/internal/components/product"
	"concat/internal/components/sortlist"
	"concat/internal/driver"
	"concat/internal/history"
	"concat/internal/testexec"
	"concat/internal/tspec"
)

func TestTargetsComplete(t *testing.T) {
	targets := Targets()
	for _, name := range []string{account.Name, oblist.Name, sortlist.Name, product.Name} {
		tgt, ok := targets[name]
		if !ok {
			t.Fatalf("target %q missing", name)
		}
		comp := tgt.New(nil)
		if comp.Factory.Name() != name {
			t.Errorf("factory for %q builds %q", name, comp.Factory.Name())
		}
		if err := comp.Spec().Validate(); err != nil {
			t.Errorf("spec for %q invalid: %v", name, err)
		}
	}
}

func TestLookupTarget(t *testing.T) {
	if _, err := LookupTarget("Nope"); err == nil {
		t.Error("unknown target should fail")
	}
	tgt, err := LookupTarget(account.Name)
	if err != nil || tgt.Name != account.Name {
		t.Errorf("LookupTarget = %+v, %v", tgt, err)
	}
}

func TestRegistryHasAllBuiltins(t *testing.T) {
	reg, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 7 {
		t.Errorf("registry names = %v", names)
	}
}

func TestSelfTestWorkflow(t *testing.T) {
	for name, tgt := range Targets() {
		t.Run(name, func(t *testing.T) {
			comp := tgt.New(nil)
			suite, report, err := comp.SelfTest(
				driver.Options{Seed: 21, ExpandAlternatives: true, MaxAlternatives: 3},
				testexec.Options{},
			)
			if err != nil {
				t.Fatalf("SelfTest: %v", err)
			}
			if len(suite.Cases) == 0 {
				t.Fatal("no cases generated")
			}
			if !report.AllPassed() {
				t.Fatalf("failures: %+v", report.Failures()[:1])
			}
			h := comp.History(suite)
			if len(h.Entries) != len(suite.Cases) {
				t.Errorf("history entries = %d", len(h.Entries))
			}
		})
	}
}

func TestSelfTestInvalidOptions(t *testing.T) {
	comp := Targets()[account.Name].New(nil)
	// A broken generation option set: criterion unknown.
	_, _, err := comp.SelfTest(driver.Options{Criterion: 99}, testexec.Options{})
	if err == nil {
		t.Error("unknown criterion should fail")
	}
}

// Every built-in spec diffs empty against its own copy: the test-impact
// engine must keep every cached verdict for an unchanged component.
func TestTargetSpecsDiffEmptyAgainstThemselves(t *testing.T) {
	for name, tgt := range Targets() {
		s := tgt.New(nil).Spec()
		if d := tspec.DiffSpecs(s, s.Clone()); !d.Empty() {
			t.Errorf("%s: spec diffed against its clone: %+v", name, d)
		}
	}
}

func TestDeriveWorkflow(t *testing.T) {
	parent := Targets()[oblist.Name].New(nil)
	child := Targets()[sortlist.Name].New(nil)
	opts := driver.Options{Seed: 42, ExpandAlternatives: true, MaxAlternatives: 3}
	parentSuite, err := parent.GenerateSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := history.Derive(parent.Spec(), child.Spec(), parentSuite, opts)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if d.NumNew == 0 || d.NumReused == 0 {
		t.Errorf("derived = new %d reused %d", d.NumNew, d.NumReused)
	}
	rep, err := child.RunSuite(d.Suite, testexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllPassed() {
		t.Fatalf("derived suite failures: %+v", rep.Failures()[:1])
	}
}

func TestMutationRunWorkflow(t *testing.T) {
	comp := Targets()[account.Name].New(nil)
	suite, err := comp.GenerateSuite(driver.Options{Seed: 5, ExpandAlternatives: true, MaxAlternatives: 4})
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	res, err := MutationRun(account.Name, suite, nil, &progress)
	if err != nil {
		t.Fatalf("MutationRun: %v", err)
	}
	if len(res.Mutants) == 0 {
		t.Fatal("no mutants analyzed")
	}
	table := res.Tabulate()
	if table.Total.Killed == 0 {
		t.Error("account suite should kill some withdraw mutants")
	}
	if !strings.Contains(progress.String(), "killed") {
		t.Error("progress output missing verdicts")
	}
}

func TestMutationRunErrors(t *testing.T) {
	if _, err := MutationRun("Nope", nil, nil, nil); err == nil {
		t.Error("unknown target should fail")
	}
	comp := Targets()[product.Name].New(nil)
	suite, err := comp.GenerateSuite(driver.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MutationRun(product.Name, suite, nil, nil); err == nil {
		t.Error("uninstrumented component should fail")
	}
	// Suite/target mismatch surfaces from the reference run.
	if _, err := MutationRun(account.Name, suite, nil, nil); err == nil {
		t.Error("mismatched suite should fail")
	}
}
