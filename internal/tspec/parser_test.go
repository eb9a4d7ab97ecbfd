package tspec

import (
	"strings"
	"testing"

	"concat/internal/domain"
)

// productSpecText is a t-spec for the paper's Figure 1/3 Product class,
// written in the Figure 3 notation.
const productSpecText = `
// t-spec for class Product (paper Figures 1-3)
Class('Product',
      No,            // not abstract
      <empty>,       // no superclass
      <empty>)       // no source file list

Attribute('qty', range, 1, 99999)
Attribute('name', string, 1, 30)
Attribute('price', range, 0.01, 10000.0)
Attribute('prov', pointer, 'Provider', nullable)

Method(m1, 'Product', <empty>, constructor, 0)
Method(m2, 'Product', <empty>, constructor, 4)
Parameter(m2, 'q', range, 1, 99999)
Parameter(m2, 'n', string, ['p1', 'p2', 'p3'])
Parameter(m2, 'p', range, 0.01, 10000.0)
Parameter(m2, 'prv', pointer, 'Provider', nullable)
Method(m3, '~Product', <empty>, destructor, 0)
Method(m4, 'UpdateQty', <empty>, update, 1)
Parameter(m4, 'q', range, 1, 99999)
Uses(m4, ['qty'])
Method(m5, 'ShowAttributes', <empty>, access, 0)

Node(n1, Yes, 1, [m1, m2])
Node(n2, No, 2, [m4])
Node(n3, No, 1, [m5])
Node(n4, No, 0, [m3])
Edge(n1, n2)
Edge(n2, n3)
Edge(n2, n4)
Edge(n3, n4)
`

func parseProduct(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse(productSpecText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseProductSpec(t *testing.T) {
	s := parseProduct(t)
	if s.Class.Name != "Product" || s.Class.Abstract || s.Class.Superclass != "" {
		t.Errorf("class = %+v", s.Class)
	}
	if len(s.Attributes) != 4 {
		t.Fatalf("attributes = %d", len(s.Attributes))
	}
	if s.Attributes[0].Name != "qty" || s.Attributes[0].Domain.Kind != DomRange {
		t.Errorf("attr qty = %+v", s.Attributes[0])
	}
	if s.Attributes[2].Domain.Float != true {
		t.Error("price should be a float range")
	}
	if s.Attributes[3].Domain.Kind != DomPointer || !s.Attributes[3].Domain.Nullable {
		t.Errorf("prov = %+v", s.Attributes[3].Domain)
	}
	if len(s.Methods) != 5 {
		t.Fatalf("methods = %d", len(s.Methods))
	}
	m2, ok := s.MethodByID("m2")
	if !ok || len(m2.Params) != 4 || m2.DeclaredParams != 4 {
		t.Fatalf("m2 = %+v, ok=%v", m2, ok)
	}
	if m2.Params[1].Domain.Kind != DomString || len(m2.Params[1].Domain.Candidates) != 3 {
		t.Errorf("m2 param n = %+v", m2.Params[1].Domain)
	}
	m4, _ := s.MethodByID("m4")
	if len(m4.Uses) != 1 || m4.Uses[0] != "qty" {
		t.Errorf("m4 uses = %v", m4.Uses)
	}
	if len(s.Nodes) != 4 || len(s.Edges) != 4 {
		t.Errorf("model = %d nodes, %d edges", len(s.Nodes), len(s.Edges))
	}
	if !s.Nodes[0].Start || s.Nodes[0].OutDeg != 1 {
		t.Errorf("n1 = %+v", s.Nodes[0])
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"empty input", "", "missing Class"},
		{"unknown clause", "Class('A', No, <empty>, <empty>) Widget(1)", "unknown clause"},
		{"duplicate class", "Class('A', No, <empty>, <empty>) Class('B', No, <empty>, <empty>)", "duplicate Class"},
		{"class arity", "Class('A')", "4 arguments"},
		{"class name not string", "Class(A, No, <empty>, <empty>)", "quoted string"},
		{"bad abstract flag", "Class('A', Maybe, <empty>, <empty>)", "Yes or No"},
		{"bad sources", "Class('A', No, <empty>, 42)", "source files"},
		{"attribute arity", "Class('A', No, <empty>, <empty>) Attribute('x')", "at least 2"},
		{"unknown domain", "Class('A', No, <empty>, <empty>) Attribute('x', widget, 1)", "unknown domain type"},
		{"range arity", "Class('A', No, <empty>, <empty>) Attribute('x', range, 1)", "lower and upper"},
		{"range non-number", "Class('A', No, <empty>, <empty>) Attribute('x', range, 'a', 'b')", "must be a number"},
		{"set not list", "Class('A', No, <empty>, <empty>) Attribute('x', set, 3)", "single list"},
		{"set bad member", "Class('A', No, <empty>, <empty>) Attribute('x', set, [yes])", "number or string"},
		{"string arity", "Class('A', No, <empty>, <empty>) Attribute('x', string, 1)", "string domain takes"},
		{"string float len", "Class('A', No, <empty>, <empty>) Attribute('x', string, 1.5, 3)", "must be an integer"},
		{"pointer no type", "Class('A', No, <empty>, <empty>) Attribute('x', pointer)", "takes a type name"},
		{"pointer bad flag", "Class('A', No, <empty>, <empty>) Attribute('x', pointer, 'T', maybe)", "nullable"},
		{"pointer too many", "Class('A', No, <empty>, <empty>) Attribute('x', pointer, 'T', nullable, nullable)", "at most"},
		{"bool args", "Class('A', No, <empty>, <empty>) Attribute('x', bool, 1)", "no arguments"},
		{"method arity", "Class('A', No, <empty>, <empty>) Method(m1, 'f')", "5 arguments"},
		{"method category", "Class('A', No, <empty>, <empty>) Method(m1, 'f', <empty>, builder, 0)", "unknown method category"},
		{"method bad return", "Class('A', No, <empty>, <empty>) Method(m1, 'f', 3, constructor, 0)", "return type"},
		{"param unknown method", "Class('A', No, <empty>, <empty>) Parameter(m9, 'x', range, 1, 2)", "undeclared method"},
		{"param arity", "Class('A', No, <empty>, <empty>) Parameter(m9)", "at least 3"},
		{"uses arity", "Class('A', No, <empty>, <empty>) Uses(m1)", "2 arguments"},
		{"uses unknown method", "Class('A', No, <empty>, <empty>) Uses(m9, ['x'])", "undeclared method"},
		{"uses bad list", "Class('A', No, <empty>, <empty>) Method(m1, 'f', <empty>, update, 0) Uses(m1, [1])", "must be names"},
		{"node arity", "Class('A', No, <empty>, <empty>) Node(n1)", "4 arguments"},
		{"node methods not list", "Class('A', No, <empty>, <empty>) Node(n1, No, 0, m1)", "must be a list"},
		{"edge arity", "Class('A', No, <empty>, <empty>) Edge(n1)", "2 arguments"},
		{"redefined not list", "Class('A', No, <empty>, <empty>) Redefined('x')", "single list"},
		{"unterminated string", "Class('A", "unterminated"},
		{"bad escape", `Class('a\z', No, <empty>, <empty>)`, "unknown escape"},
		{"stray char", "Class('A', No, <empty>, <empty>) @", "unexpected character"},
		{"bad empty literal", "Class('A', No, <emp>, <empty>)", "expected <empty>"},
		{"missing paren", "Class('A', No, <empty>, <empty>", "expected"},
		{"malformed number", "Class('A', No, <empty>, <empty>) Attribute('x', range, -, 2)", "malformed number"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	src := `
/* block comment
   spanning lines */
Class('A', No, <empty>, <empty>) // trailing
// whole line
Method(m1, 'A', <empty>, constructor, 0)
Method(m2, '~A', <empty>, destructor, 0)
Node(n1, Yes, 1, [m1])
Node(n2, No, 0, [m2])
Edge(n1, n2)
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s, err := Parse(`Class('it\'s \"x\"\n\t\\', No, <empty>, <empty>)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Class.Name != "it's \"x\"\n\t\\" {
		t.Errorf("name = %q", s.Class.Name)
	}
}

func TestParseDoubleQuotedStrings(t *testing.T) {
	s, err := Parse(`Class("A", No, "Super", ["f1.cpp", "f2.cpp"])`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Class.Superclass != "Super" || len(s.Class.Sources) != 2 {
		t.Errorf("class = %+v", s.Class)
	}
}

func TestParseSetDomains(t *testing.T) {
	s, err := Parse(`
Class('A', No, <empty>, <empty>)
Attribute('ints', set, [1, 2, 3])
Attribute('floats', set, [1.5, 2.5])
Attribute('strs', set, ['a', 'b'])
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Attributes[0].Domain.Members[0].Kind() != domain.KindInt {
		t.Error("int set member kind wrong")
	}
	if s.Attributes[1].Domain.Members[0].Kind() != domain.KindFloat {
		t.Error("float set member kind wrong")
	}
	if s.Attributes[2].Domain.Members[0].Kind() != domain.KindString {
		t.Error("string set member kind wrong")
	}
}

func TestRoundTrip(t *testing.T) {
	orig := parseProduct(t)
	var sb strings.Builder
	if err := orig.Format(&sb); err != nil {
		t.Fatalf("Format: %v", err)
	}
	back, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("re-Parse:\n%s\nerror: %v", sb.String(), err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("re-Validate: %v", err)
	}
	// Compare the round-tripped spec structurally.
	if back.Class.Name != orig.Class.Name || back.Class.Abstract != orig.Class.Abstract ||
		back.Class.Superclass != orig.Class.Superclass {
		t.Errorf("class differs: %+v vs %+v", back.Class, orig.Class)
	}
	if len(back.Attributes) != len(orig.Attributes) {
		t.Fatalf("attributes: %d vs %d", len(back.Attributes), len(orig.Attributes))
	}
	for i := range orig.Attributes {
		if back.Attributes[i].Name != orig.Attributes[i].Name ||
			!sameDomainDecl(back.Attributes[i].Domain, orig.Attributes[i].Domain) {
			t.Errorf("attribute %d differs: %+v vs %+v", i, back.Attributes[i], orig.Attributes[i])
		}
	}
	if len(back.Methods) != len(orig.Methods) {
		t.Fatalf("methods: %d vs %d", len(back.Methods), len(orig.Methods))
	}
	for i := range orig.Methods {
		if signatureChange(back.Methods[i], orig.Methods[i]) != "" {
			t.Errorf("method %d differs: %+v vs %+v", i, back.Methods[i], orig.Methods[i])
		}
	}
	if len(back.Nodes) != len(orig.Nodes) || len(back.Edges) != len(orig.Edges) {
		t.Errorf("model: %d/%d vs %d/%d", len(back.Nodes), len(back.Edges), len(orig.Nodes), len(orig.Edges))
	}
}

func TestRoundTripInheritanceClauses(t *testing.T) {
	src := `
Class('Sub', No, 'Base', <empty>)
Attribute('n', range, 0, 10)
Method(m1, 'Sub', <empty>, constructor, 0)
Method(m2, '~Sub', <empty>, destructor, 0)
Method(m3, 'Touch', <empty>, update, 0)
Uses(m3, ['n'])
Node(n1, Yes, 1, [m1])
Node(n2, No, 1, [m3])
Node(n3, No, 0, [m2])
Edge(n1, n2)
Edge(n2, n3)
Redefined(['Touch'])
ModifiedAttributes(['n'])
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var sb strings.Builder
	if err := s.Format(&sb); err != nil {
		t.Fatalf("Format: %v", err)
	}
	back, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if len(back.Redefined) != 1 || back.Redefined[0] != "Touch" {
		t.Errorf("Redefined = %v", back.Redefined)
	}
	if len(back.ModifiedAttributes) != 1 || back.ModifiedAttributes[0] != "n" {
		t.Errorf("ModifiedAttributes = %v", back.ModifiedAttributes)
	}
}

func TestSpecString(t *testing.T) {
	s := parseProduct(t)
	if !strings.Contains(s.String(), "Class('Product'") {
		t.Errorf("String() = %q", s.String())
	}
}
