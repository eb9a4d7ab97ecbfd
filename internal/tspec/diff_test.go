package tspec

import (
	"sort"
	"testing"
)

// subClone derives a child spec from the base builder by cloning: same
// methods, correct superclass link, ready for targeted mutation.
func subClone(t *testing.T) (parent, child *Spec) {
	t.Helper()
	parent = baseBuilder().MustBuild()
	child = parent.Clone()
	child.Class.Name = "Sub"
	child.Class.Superclass = "Base"
	return parent, child
}

// classify diffs child against parent with DiffSubclass and reads the
// §3.4.2 status of every child method off the delta.
func classify(t *testing.T, parent, child *Spec) map[string]string {
	t.Helper()
	d, err := DiffSubclass(parent, child)
	if err != nil {
		t.Fatalf("DiffSubclass: %v", err)
	}
	cls := map[string]string{}
	for _, m := range child.Methods {
		cls[m.Name] = status(d, m.Name)
	}
	return cls
}

// status names a child method's class from a subclass delta: a method
// reported added is new, any other impacted method is redefined, and an
// unreported one is inherited.
func status(d SpecDelta, method string) string {
	switch d.ImpactedReason(method) {
	case "":
		return inherited
	case ReasonAdded:
		return added
	default:
		return redefined
	}
}

const (
	inherited = "inherited"
	redefined = "redefined"
	added     = "new"
)

// counts tallies the statuses of a classification.
func counts(cls map[string]string) (inh, red, nw int) {
	for _, st := range cls {
		switch st {
		case inherited:
			inh++
		case redefined:
			red++
		case added:
			nw++
		}
	}
	return inh, red, nw
}

// namesWith returns the sorted method names with the given status.
func namesWith(cls map[string]string, st string) []string {
	var out []string
	for name, got := range cls {
		if got == st {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// An unmodified clone inherits every method: the signature test must not
// produce false positives on identical declarations.
func TestClassifyIdenticalCloneInheritsAll(t *testing.T) {
	parent, child := subClone(t)
	cls := classify(t, parent, child)
	for name, st := range cls {
		if st != inherited {
			t.Errorf("%s = %s, want inherited", name, st)
		}
	}
	if inh, red, nw := counts(cls); inh != 4 || red != 0 || nw != 0 {
		t.Errorf("counts = %d/%d/%d, want 4/0/0", inh, red, nw)
	}
}

// Adding a parameter to an inherited method changes its signature — Harrold's
// model forbids that, so the method must be regenerated (Redefined).
func TestClassifyAddedParameter(t *testing.T) {
	parent, child := subClone(t)
	add := &child.Methods[2] // Add(v)
	add.Params = append(add.Params, Param{Name: "w", Domain: RangeInt(0, 1)})
	cls := classify(t, parent, child)
	if cls["Add"] != redefined {
		t.Errorf("Add = %s, want redefined after added parameter", cls["Add"])
	}
	if cls["Get"] != inherited {
		t.Errorf("Get = %s, want inherited (untouched)", cls["Get"])
	}
}

// Removing a parameter is the symmetric signature change.
func TestClassifyRemovedParameter(t *testing.T) {
	parent, child := subClone(t)
	child.Methods[2].Params = nil // Add(v) -> Add()
	cls := classify(t, parent, child)
	if cls["Add"] != redefined {
		t.Errorf("Add = %s, want redefined after removed parameter", cls["Add"])
	}
}

// Re-domaining a parameter — same name and arity, different input domain —
// is a spec change even when the structural signature is unchanged. Each
// variant of the domain declaration must be noticed.
func TestClassifyRedomainedParameter(t *testing.T) {
	cases := []struct {
		name   string
		domain DomainDecl
	}{
		{"narrowed range", RangeInt(1, 5)},
		{"widened range", RangeInt(1, 10000)},
		{"shifted bounds", RangeInt(2, 11)},
		{"kind change to string", StringLen(1, 10)},
		{"kind change to bool", BoolDom()},
		{"float promotion", RangeFloat(1, 10)},
		{"enumerated candidates", StringsOf("a", "b")},
		{"nullable pointer", PointerTo("T", true)},
		{"non-nullable pointer", PointerTo("T", false)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parent, child := subClone(t)
			child.Methods[2].Params[0].Domain = c.domain
			cls := classify(t, parent, child)
			if cls["Add"] != redefined {
				t.Errorf("Add = %s, want redefined after %s", cls["Add"], c.name)
			}
		})
	}
}

// Renaming a parameter counts as a signature change too: the t-spec names
// feed the generated driver, so parent cases would no longer replay.
func TestClassifyRenamedParameter(t *testing.T) {
	parent, child := subClone(t)
	child.Methods[2].Params[0].Name = "value"
	cls := classify(t, parent, child)
	if cls["Add"] != redefined {
		t.Errorf("Add = %s, want redefined after parameter rename", cls["Add"])
	}
}

// Constructor handling. A subclass that keeps the parent's constructor name
// and shape inherits it; changing the constructor's parameters — the common
// real-world case of a subclass constructor taking extra configuration —
// forces regeneration; a renamed constructor (the usual C++/Go pattern where
// the constructor carries the class name) is New.
func TestClassifyConstructorChanges(t *testing.T) {
	t.Run("unchanged constructor inherits", func(t *testing.T) {
		parent, child := subClone(t)
		cls := classify(t, parent, child)
		if cls["Base"] != inherited {
			t.Errorf("Base ctor = %s, want inherited", cls["Base"])
		}
	})
	t.Run("constructor gains parameter", func(t *testing.T) {
		parent, child := subClone(t)
		ctor := &child.Methods[0] // Base()
		ctor.Params = append(ctor.Params, Param{Name: "capacity", Domain: RangeInt(1, 8)})
		cls := classify(t, parent, child)
		if cls["Base"] != redefined {
			t.Errorf("Base ctor = %s, want redefined after added parameter", cls["Base"])
		}
	})
	t.Run("renamed constructor is new", func(t *testing.T) {
		parent, child := subClone(t)
		child.Methods[0].Name = "Sub"
		cls := classify(t, parent, child)
		if cls["Sub"] != added {
			t.Errorf("Sub ctor = %s, want new", cls["Sub"])
		}
		if _, ok := cls["Base"]; ok {
			t.Error("classification lists the parent's constructor name, but only child methods belong in it")
		}
	})
	t.Run("constructor category change", func(t *testing.T) {
		parent, child := subClone(t)
		child.Methods[0].Category = CatUpdate
		cls := classify(t, parent, child)
		if cls["Base"] != redefined {
			t.Errorf("Base ctor = %s, want redefined after category change", cls["Base"])
		}
	})
}

// A method dropped from the child never appears in the classification —
// callers iterate child methods only, so removal is visible as absence.
func TestClassifyRemovedMethodAbsent(t *testing.T) {
	parent, child := subClone(t)
	child.Methods = append(child.Methods[:3], child.Methods[4:]...) // drop Get
	cls := classify(t, parent, child)
	if _, ok := cls["Get"]; ok {
		t.Error("removed method Get still classified")
	}
	if len(cls) != 3 {
		t.Errorf("classification size = %d, want 3", len(cls))
	}
}

// Redefinition precedence: an explicit Redefined clause wins even when the
// signatures agree, and combines with a signature change without conflict.
func TestClassifyExplicitRedefinePrecedence(t *testing.T) {
	parent, child := subClone(t)
	child.Redefined = []string{"Get"}
	child.Methods[2].Params[0].Domain = RangeInt(1, 99) // Add re-domained too
	cls := classify(t, parent, child)
	if cls["Get"] != redefined {
		t.Errorf("Get = %s, want redefined (explicit clause)", cls["Get"])
	}
	if cls["Add"] != redefined {
		t.Errorf("Add = %s, want redefined (signature)", cls["Add"])
	}
	if inh, red, nw := counts(cls); inh != 2 || red != 2 || nw != 0 {
		t.Errorf("counts = %d/%d/%d, want 2/2/0", inh, red, nw)
	}
}
