package tspec

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser's robustness contract: arbitrary input never
// panics, and any input that parses AND validates must round-trip through
// Format into an equivalent spec. Run with `go test -fuzz FuzzParse` for a
// real campaign; the seed corpus runs in ordinary `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"Class('A', No, <empty>, <empty>)",
		productSpecText,
		"Class('A', Yes, 'B', ['x.cpp'])\nMethod(m1, 'A', <empty>, constructor, 0)",
		"Attribute('x', range, 1, 2)",
		"Node(n1, Yes, 0, [])",
		"Class('A', No, <empty>, <empty>) Attribute('s', string, ['a','b'])",
		"Class('A', No, <empty>, <empty>) Attribute('s', set, [1, 2.5, 'x'])",
		"// just a comment",
		"/* unterminated",
		"Class('q\\'q', No, <empty>, <empty>)",
		"Class(\x00, No, <empty>, <empty>)",
		strings.Repeat("Edge(n1, n2)\n", 50),
		"Class('A', No, <empty>, <empty>) Uses(m1, ['a'])",
		"Class('A', No, <empty>, <empty>) Redefined(['X']) ModifiedAttributes(['y'])",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if spec.Validate() != nil {
			return
		}
		var sb strings.Builder
		if err := spec.Format(&sb); err != nil {
			t.Fatalf("valid spec failed to format: %v", err)
		}
		back, err := Parse(sb.String())
		if err != nil {
			t.Fatalf("formatted spec does not re-parse: %v\n%s", err, sb.String())
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec invalid: %v", err)
		}
		if back.Class.Name != spec.Class.Name ||
			len(back.Methods) != len(spec.Methods) ||
			len(back.Attributes) != len(spec.Attributes) ||
			len(back.Nodes) != len(spec.Nodes) ||
			len(back.Edges) != len(spec.Edges) {
			t.Fatalf("round trip changed the spec shape:\noriginal: %s\nback: %s", spec, back)
		}
		// Metamorphic property: a spec diffed against its own round trip is
		// an empty delta.
		if d := DiffSpecs(spec, back); !d.Empty() {
			t.Fatalf("round trip is not an empty diff: %+v\n%s", d, sb.String())
		}
	})
}
