package tspec

import (
	"fmt"
	"slices"
	"sort"

	"concat/internal/domain"
)

// DiffSpecs is the one place two specs' methods are compared. It reports
// which methods' test cases an edit invalidates, and why. The test-impact
// engine (internal/impact) re-runs the cases that exercise an impacted
// method and replays the rest from the verdict store; through DiffSubclass,
// package history sorts a subclass's methods into the §3.4.2 classes (new,
// redefined, inherited) that drive inheritance reuse.

// Impact reasons, ordered by precedence (the first matching reason wins).
const (
	// ReasonAdded: the method does not exist in the old spec.
	ReasonAdded = "added"
	// ReasonSignatureChanged: name/return/category/parameter structure moved
	// — the non-domain part of the signature Harrold's model freezes.
	ReasonSignatureChanged = "signature-changed"
	// ReasonDomainChanged: same structure, but a parameter's declared value
	// domain moved, so generated inputs may differ.
	ReasonDomainChanged = "domain-changed"
	// ReasonRedefined: newly listed in the spec's Redefined clause — the
	// implementation was replaced without a spec change, which still
	// invalidates observed behavior.
	ReasonRedefined = "redefined"
	// ReasonUsesModifiedAttribute: the method Uses an attribute that is newly
	// listed in ModifiedAttributes or whose declared domain changed (§3.4.2:
	// methods using a modified attribute are considered modified).
	ReasonUsesModifiedAttribute = "uses-modified-attribute"
)

// MethodDelta is one impacted method with the reason its verdicts are
// invalidated.
type MethodDelta struct {
	Method string `json:"method"`
	Reason string `json:"reason"`
}

// SpecDelta is the result of DiffSpecs: everything about the edit that the
// impact engine needs to partition a re-run.
type SpecDelta struct {
	// Impacted lists methods (present in the new spec) whose cached results
	// are invalid, sorted by method name.
	Impacted []MethodDelta `json:"impacted,omitempty"`
	// Removed lists methods present only in the old spec, sorted. Their
	// cases vanish from the generated suite on their own; the field exists
	// for reporting.
	Removed []string `json:"removed,omitempty"`
	// ModelChanged reports that the TFM (nodes or edges) differs, so the
	// transaction enumeration itself may have moved. The impact engine does
	// not need a per-edge attribution: regenerated transactions reveal
	// themselves by case-content comparison.
	ModelChanged bool `json:"modelChanged,omitempty"`
}

// Empty reports a no-op edit: nothing impacted, nothing removed, same model.
func (d SpecDelta) Empty() bool {
	return len(d.Impacted) == 0 && len(d.Removed) == 0 && !d.ModelChanged
}

// ImpactedSet returns the impacted method names as a set.
func (d SpecDelta) ImpactedSet() map[string]bool {
	out := make(map[string]bool, len(d.Impacted))
	for _, m := range d.Impacted {
		out[m.Method] = true
	}
	return out
}

// ImpactedReason returns the recorded reason for an impacted method, or "".
func (d SpecDelta) ImpactedReason(method string) string {
	for _, m := range d.Impacted {
		if m.Method == method {
			return m.Reason
		}
	}
	return ""
}

// DiffSpecs compares two revisions of one class and computes the impacted
// method set. It imposes no superclass relation (DiffSubclass adds one). A
// method in the new spec is impacted when it is new, its signature or a
// parameter domain changed, it is newly redefined, or it uses an attribute
// that was modified (newly listed in ModifiedAttributes, new, or whose
// declared domain changed between revisions). Methods pair up by name and,
// among overloads of one name, by declaration order.
func DiffSpecs(old, new *Spec) SpecDelta {
	var d SpecDelta

	oldRedef, newRedef := nameSet(old.Redefined), nameSet(new.Redefined)
	// An attribute counts as modified when newly flagged, when its declared
	// domain changed, or when it is new — any of these can change invariant
	// checking and reporter behavior for the methods using it.
	oldModAttr := nameSet(old.ModifiedAttributes)
	modAttrs := map[string]bool{}
	for _, name := range new.ModifiedAttributes {
		if !oldModAttr[name] {
			modAttrs[name] = true
		}
	}
	for _, a := range new.Attributes {
		oldA, ok := old.AttributeByName(a.Name)
		if !ok || !sameDomainDecl(oldA.Domain, a.Domain) {
			modAttrs[a.Name] = true
		}
	}

	oldMethods, newMethods := byOverload(old.Methods), byOverload(new.Methods)
	for key, m := range newMethods {
		reason := ReasonAdded
		if oldM, inOld := oldMethods[key]; inOld {
			reason = signatureChange(oldM, m)
		}
		switch {
		case reason != "":
		case newRedef[m.Name] && !oldRedef[m.Name]:
			reason = ReasonRedefined
		case usesModified(m, modAttrs):
			reason = ReasonUsesModifiedAttribute
		default:
			continue
		}
		d.Impacted = append(d.Impacted, MethodDelta{m.Name, reason})
	}
	sort.Slice(d.Impacted, func(i, j int) bool {
		a, b := d.Impacted[i], d.Impacted[j]
		return a.Method < b.Method || a.Method == b.Method && a.Reason < b.Reason
	})

	for key := range oldMethods {
		if _, inNew := newMethods[key]; !inNew {
			d.Removed = append(d.Removed, key.name)
		}
	}
	sort.Strings(d.Removed)

	d.ModelChanged = modelChanged(old, new)
	return d
}

// DiffSubclass is DiffSpecs framed for inheritance (§3.4.2, adapted from
// Harrold et al.'s incremental class testing): child must name parent as
// its superclass, and since the child's Redefined and ModifiedAttributes
// clauses are relative to its parent, the parent's own are cleared before
// the diff. A child method reported ReasonAdded is new, any other impacted
// method is redefined, and the rest are inherited. Constructors and
// destructors are classified like every other method; package history
// excludes them from the transaction-level modification test itself.
func DiffSubclass(parent, child *Spec) (SpecDelta, error) {
	if child.Class.Superclass != parent.Class.Name {
		return SpecDelta{}, fmt.Errorf("tspec: %q does not extend %q (superclass is %q)",
			child.Class.Name, parent.Class.Name, child.Class.Superclass)
	}
	base := parent.Clone()
	base.Redefined, base.ModifiedAttributes = nil, nil
	return DiffSpecs(base, child), nil
}

// overloadKey identifies a method by its name and its ordinal among the
// spec's methods of that name.
type overloadKey struct {
	name    string
	ordinal int
}

// byOverload indexes methods by overloadKey, so that overloads of one name
// pair up in declaration order across revisions.
func byOverload(methods []Method) map[overloadKey]Method {
	out := make(map[overloadKey]Method, len(methods))
	seen := map[string]int{}
	for _, m := range methods {
		out[overloadKey{m.Name, seen[m.Name]}] = m
		seen[m.Name]++
	}
	return out
}

func nameSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, name := range names {
		out[name] = true
	}
	return out
}

func usesModified(m Method, modAttrs map[string]bool) bool {
	for _, u := range m.Uses {
		if modAttrs[u] {
			return true
		}
	}
	return false
}

// signatureChange reports which part of a method declaration moved
// between revisions a and b, judged on the parts Harrold's model freezes:
// ReasonSignatureChanged when the name, return type, category or ordered
// parameter names differ, ReasonDomainChanged when only a parameter's
// declared domain moved, and "" when the declarations agree.
func signatureChange(a, b Method) string {
	if a.Name != b.Name || a.Return != b.Return || a.Category != b.Category || len(a.Params) != len(b.Params) {
		return ReasonSignatureChanged
	}
	change := ""
	for i, p := range a.Params {
		switch {
		case p.Name != b.Params[i].Name:
			return ReasonSignatureChanged
		case !sameDomainDecl(p.Domain, b.Params[i].Domain):
			change = ReasonDomainChanged
		}
	}
	return change
}

func sameDomainDecl(a, b DomainDecl) bool {
	return a.Kind == b.Kind && a.Float == b.Float && a.Lo == b.Lo && a.Hi == b.Hi &&
		a.MinLen == b.MinLen && a.MaxLen == b.MaxLen &&
		a.TypeName == b.TypeName && a.Nullable == b.Nullable &&
		slices.EqualFunc(a.Members, b.Members, domain.Value.Equal) &&
		slices.Equal(a.Candidates, b.Candidates)
}

// modelChanged reports whether the TFM declarations (node IDs, start flags
// and method lists, and the edges) differ.
func modelChanged(old, new *Spec) bool {
	sameNode := func(o, n NodeDecl) bool {
		return o.ID == n.ID && o.Start == n.Start && slices.Equal(o.Methods, n.Methods)
	}
	return !slices.EqualFunc(old.Nodes, new.Nodes, sameNode) || !slices.Equal(old.Edges, new.Edges)
}
