package tspec

import (
	"reflect"
	"testing"
)

func revClone(t *testing.T) (old, new *Spec) {
	t.Helper()
	old = baseBuilder().MustBuild()
	return old, old.Clone()
}

func TestDiffSpecsIdenticalIsEmpty(t *testing.T) {
	old, new := revClone(t)
	d := DiffSpecs(old, new)
	if !d.Empty() {
		t.Fatalf("identical revisions produced a delta: %+v", d)
	}
}

func TestDiffSpecsDomainChange(t *testing.T) {
	old, new := revClone(t)
	new.Methods[2].Params[0].Domain = RangeInt(1, 5) // Add(v): narrowed
	d := DiffSpecs(old, new)
	want := []MethodDelta{{"Add", ReasonDomainChanged}}
	if !reflect.DeepEqual(d.Impacted, want) {
		t.Fatalf("Impacted = %+v, want %+v", d.Impacted, want)
	}
	if d.ModelChanged || len(d.Removed) != 0 {
		t.Fatalf("unexpected model/removal delta: %+v", d)
	}
}

func TestDiffSpecsSignatureAndConstructorChanges(t *testing.T) {
	t.Run("added parameter", func(t *testing.T) {
		old, new := revClone(t)
		new.Methods[2].Params = append(new.Methods[2].Params, Param{Name: "w", Domain: RangeInt(0, 1)})
		d := DiffSpecs(old, new)
		if got := d.ImpactedReason("Add"); got != ReasonSignatureChanged {
			t.Fatalf("Add reason = %q, want %q", got, ReasonSignatureChanged)
		}
	})
	t.Run("constructor gains parameter", func(t *testing.T) {
		old, new := revClone(t)
		new.Methods[0].Params = append(new.Methods[0].Params, Param{Name: "capacity", Domain: RangeInt(1, 8)})
		d := DiffSpecs(old, new)
		if got := d.ImpactedReason("Base"); got != ReasonSignatureChanged {
			t.Fatalf("ctor reason = %q, want %q", got, ReasonSignatureChanged)
		}
	})
	t.Run("return type change", func(t *testing.T) {
		old, new := revClone(t)
		new.Methods[3].Return = "int64" // Get
		d := DiffSpecs(old, new)
		if got := d.ImpactedReason("Get"); got != ReasonSignatureChanged {
			t.Fatalf("Get reason = %q, want %q", got, ReasonSignatureChanged)
		}
	})
}

func TestDiffSpecsRenamedMethod(t *testing.T) {
	old, new := revClone(t)
	new.Methods[3].Name = "Peek" // Get -> Peek
	d := DiffSpecs(old, new)
	if got := d.ImpactedReason("Peek"); got != ReasonAdded {
		t.Fatalf("Peek reason = %q, want %q", got, ReasonAdded)
	}
	if !reflect.DeepEqual(d.Removed, []string{"Get"}) {
		t.Fatalf("Removed = %v, want [Get]", d.Removed)
	}
}

func TestDiffSpecsNewlyRedefined(t *testing.T) {
	old, new := revClone(t)
	old.Redefined = []string{"Get"}
	new.Redefined = []string{"Get", "Add"}
	d := DiffSpecs(old, new)
	// Get was already redefined in the old revision — not newly invalidated.
	want := []MethodDelta{{"Add", ReasonRedefined}}
	if !reflect.DeepEqual(d.Impacted, want) {
		t.Fatalf("Impacted = %+v, want %+v", d.Impacted, want)
	}
}

func TestDiffSpecsAttributeDomainChangeHitsUsers(t *testing.T) {
	old, new := revClone(t)
	new.Attributes[0].Domain = RangeInt(0, 50) // count: narrowed
	d := DiffSpecs(old, new)
	// Only Add Uses count.
	want := []MethodDelta{{"Add", ReasonUsesModifiedAttribute}}
	if !reflect.DeepEqual(d.Impacted, want) {
		t.Fatalf("Impacted = %+v, want %+v", d.Impacted, want)
	}
}

// Overloads pair by their ordinal among same-named methods: the paper's
// Figure 3 Product declares two constructors named Product, and an
// unchanged spec must diff empty instead of pairing the 4-argument
// constructor with the 0-argument one.
func TestDiffSpecsOverloadsPairByOrdinal(t *testing.T) {
	s := parseProduct(t)
	if d := DiffSpecs(s, s); !d.Empty() {
		t.Fatalf("spec diffed against itself: %+v", d)
	}
	if d := DiffSpecs(s, s.Clone()); !d.Empty() {
		t.Fatalf("spec diffed against its clone: %+v", d)
	}

	moved := s.Clone()
	moved.Methods[1].Params[0].Domain = RangeInt(1, 50) // second Product overload
	want := []MethodDelta{{"Product", ReasonDomainChanged}}
	if d := DiffSpecs(s, moved); !reflect.DeepEqual(d.Impacted, want) {
		t.Fatalf("Impacted = %+v, want %+v", d.Impacted, want)
	}

	dropped := s.Clone()
	dropped.Methods = append(dropped.Methods[:1:1], dropped.Methods[2:]...)
	d := DiffSpecs(s, dropped)
	if len(d.Impacted) != 0 || !reflect.DeepEqual(d.Removed, []string{"Product"}) {
		t.Fatalf("dropping the second overload: %+v, want only Removed [Product]", d)
	}
}

// The one way DiffSubclass is wider than a purely clause-driven
// classification: a child attribute whose declared domain differs from the
// parent's, or that the parent lacks, counts as modified, so the methods
// that Use it are impacted even without a ModifiedAttributes clause.
func TestDiffSubclassAttributeDomainChangeHitsUsers(t *testing.T) {
	parent, child := subClone(t)
	child.Attributes[0].Domain = RangeInt(0, 50) // count: narrowed
	d, err := DiffSubclass(parent, child)
	if err != nil {
		t.Fatal(err)
	}
	// Only Add Uses count.
	want := []MethodDelta{{"Add", ReasonUsesModifiedAttribute}}
	if !reflect.DeepEqual(d.Impacted, want) {
		t.Fatalf("Impacted = %+v, want %+v", d.Impacted, want)
	}

	parent, child = subClone(t)
	child.Attributes = append(child.Attributes, Attribute{Name: "hits", Domain: RangeInt(0, 9)})
	child.Methods[3].Uses = []string{"hits"} // Get
	if d, err = DiffSubclass(parent, child); err != nil {
		t.Fatal(err)
	}
	want = []MethodDelta{{"Get", ReasonUsesModifiedAttribute}}
	if !reflect.DeepEqual(d.Impacted, want) {
		t.Fatalf("new attribute: Impacted = %+v, want %+v", d.Impacted, want)
	}
}

func TestDiffSpecsModifiedAttributesClause(t *testing.T) {
	old, new := revClone(t)
	new.ModifiedAttributes = []string{"count"}
	d := DiffSpecs(old, new)
	if got := d.ImpactedReason("Add"); got != ReasonUsesModifiedAttribute {
		t.Fatalf("Add reason = %q, want %q", got, ReasonUsesModifiedAttribute)
	}
}

func TestDiffSpecsModelChange(t *testing.T) {
	t.Run("edge removed", func(t *testing.T) {
		old, new := revClone(t)
		new.Edges = new.Edges[:len(new.Edges)-1]
		d := DiffSpecs(old, new)
		if !d.ModelChanged {
			t.Fatal("edge removal not flagged as model change")
		}
		if len(d.Impacted) != 0 {
			t.Fatalf("model-only change impacted methods: %+v", d.Impacted)
		}
	})
	t.Run("node methods reordered", func(t *testing.T) {
		old, new := revClone(t)
		new.Nodes[1].Methods = append([]string{"m4"}, new.Nodes[1].Methods...)
		new.Nodes[1].OutDeg = old.Nodes[1].OutDeg
		d := DiffSpecs(old, new)
		if !d.ModelChanged {
			t.Fatal("node method change not flagged as model change")
		}
	})
}

// --- DiffSubclass over transitive Extends chains (depth >= 3) ---

// chainSpecs builds Base -> L1 -> L2 -> L3, each level a clone of its parent
// with the superclass link set. Callers mutate individual levels.
func chainSpecs(t *testing.T) []*Spec {
	t.Helper()
	specs := []*Spec{baseBuilder().MustBuild()}
	names := []string{"L1", "L2", "L3"}
	for i, name := range names {
		child := specs[i].Clone()
		child.Class.Name = name
		child.Class.Superclass = specs[i].Class.Name
		child.Redefined = nil
		child.ModifiedAttributes = nil
		specs = append(specs, child)
	}
	return specs
}

// classifyChain applies DiffSubclass pairwise down the chain and returns
// one classification per link.
func classifyChain(t *testing.T, specs []*Spec) []map[string]string {
	t.Helper()
	out := make([]map[string]string, 0, len(specs)-1)
	for i := 1; i < len(specs); i++ {
		out = append(out, classify(t, specs[i-1], specs[i]))
	}
	return out
}

// A depth-3 chain of pure clones inherits everything at every link: no
// false redefinitions accumulate over transitive Extends.
func TestClassifyTransitiveChainAllInherited(t *testing.T) {
	specs := chainSpecs(t)
	for link, cls := range classifyChain(t, specs) {
		for name, st := range cls {
			if st != inherited {
				t.Errorf("link %d: %s = %s, want inherited", link, name, st)
			}
		}
	}
}

// A redefinition at one level is visible exactly at that link: the level
// below still classifies the method inherited (its own spec matches its
// parent's), and the level above never saw it. The impact engine depends on
// this locality — a mid-chain redefinition must not invalidate the whole
// chain's suites.
func TestClassifyTransitiveChainMidRedefinition(t *testing.T) {
	specs := chainSpecs(t)
	specs[2].Redefined = []string{"Add"} // redefined in L2 only
	cls := classifyChain(t, specs)
	if cls[0]["Add"] != inherited {
		t.Errorf("Base->L1 Add = %s, want inherited", cls[0]["Add"])
	}
	if cls[1]["Add"] != redefined {
		t.Errorf("L1->L2 Add = %s, want redefined", cls[1]["Add"])
	}
	if cls[2]["Add"] != inherited {
		t.Errorf("L2->L3 Add = %s, want inherited (L3 matches L2's spec)", cls[2]["Add"])
	}
}

// A domain change introduced mid-chain propagates structurally: the changed
// link reports redefined, and deeper links — which inherit the changed
// domain — report inherited again, while classifying the leaf directly
// against the root still sees the difference.
func TestClassifyTransitiveChainDomainChange(t *testing.T) {
	specs := chainSpecs(t)
	// Change Add's parameter domain at L1 and propagate the same domain to
	// L2/L3 (they are clones taken before the edit, so re-apply).
	for _, s := range specs[1:] {
		s.Methods[2].Params[0].Domain = RangeInt(1, 5)
	}
	cls := classifyChain(t, specs)
	if cls[0]["Add"] != redefined {
		t.Errorf("Base->L1 Add = %s, want redefined (domain changed)", cls[0]["Add"])
	}
	if cls[1]["Add"] != inherited || cls[2]["Add"] != inherited {
		t.Errorf("deeper links = %s/%s, want inherited/inherited", cls[1]["Add"], cls[2]["Add"])
	}
	// Leaf against root (re-frame the superclass) sees the change.
	leaf := specs[3].Clone()
	leaf.Class.Superclass = specs[0].Class.Name
	if got := classify(t, specs[0], leaf)["Add"]; got != redefined {
		t.Errorf("Base->L3 Add = %s, want redefined", got)
	}
}

// Multi-level redefinition precedence (diamond-free): when a method is
// explicitly redefined at L1 and again at L3, each redefining link reports
// redefined and the quiet middle link reports inherited; new methods added
// mid-chain classify New exactly once and inherited afterwards.
func TestClassifyMultiLevelRedefinitionPrecedence(t *testing.T) {
	specs := chainSpecs(t)
	specs[1].Redefined = []string{"Get"}
	specs[3].Redefined = []string{"Get"}
	// L2 adds a genuinely new method.
	for _, s := range specs[2:] {
		s.Methods = append(s.Methods, Method{ID: "m9", Name: "Reset", Category: CatUpdate})
	}
	cls := classifyChain(t, specs)

	if cls[0]["Get"] != redefined {
		t.Errorf("Base->L1 Get = %s, want redefined", cls[0]["Get"])
	}
	if cls[1]["Get"] != inherited {
		t.Errorf("L1->L2 Get = %s, want inherited (no redefinition at L2)", cls[1]["Get"])
	}
	if cls[2]["Get"] != redefined {
		t.Errorf("L2->L3 Get = %s, want redefined again", cls[2]["Get"])
	}

	if _, ok := cls[0]["Reset"]; ok {
		t.Error("Base->L1 classified Reset before it exists")
	}
	if cls[1]["Reset"] != added {
		t.Errorf("L1->L2 Reset = %s, want new", cls[1]["Reset"])
	}
	if cls[2]["Reset"] != inherited {
		t.Errorf("L2->L3 Reset = %s, want inherited", cls[2]["Reset"])
	}
	// DiffSubclass clears the parent's own clauses on a copy only.
	if len(specs[1].Redefined) != 1 || len(specs[3].Redefined) != 1 {
		t.Errorf("DiffSubclass changed the specs' Redefined clauses: %v / %v", specs[1].Redefined, specs[3].Redefined)
	}
}
