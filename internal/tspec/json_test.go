package tspec

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := parseProduct(t)
	var buf bytes.Buffer
	if err := orig.SaveJSON(&buf); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatalf("LoadJSON: %v", err)
	}
	if back.Class.Name != orig.Class.Name {
		t.Errorf("class = %q", back.Class.Name)
	}
	if len(back.Attributes) != len(orig.Attributes) ||
		len(back.Methods) != len(orig.Methods) ||
		len(back.Nodes) != len(orig.Nodes) ||
		len(back.Edges) != len(orig.Edges) {
		t.Fatal("shape changed in JSON round trip")
	}
	for i := range orig.Attributes {
		if !sameDomainDecl(back.Attributes[i].Domain, orig.Attributes[i].Domain) {
			t.Errorf("attribute %d domain differs: %+v vs %+v",
				i, back.Attributes[i].Domain, orig.Attributes[i].Domain)
		}
	}
	for i := range orig.Methods {
		if signatureChange(back.Methods[i], orig.Methods[i]) != "" {
			t.Errorf("method %d differs", i)
		}
	}
	// JSON and text forms agree.
	var textForm strings.Builder
	if err := back.Format(&textForm); err != nil {
		t.Fatal(err)
	}
	reparsed, err := Parse(textForm.String())
	if err != nil {
		t.Fatalf("text form of JSON-loaded spec does not parse: %v", err)
	}
	if err := reparsed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecJSONInheritanceClauses(t *testing.T) {
	src := baseBuilder().MustBuild().Clone()
	src.Class.Superclass = "Parent"
	src.Redefined = []string{"Add"}
	src.ModifiedAttributes = []string{"count"}
	var buf bytes.Buffer
	if err := src.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Redefined) != 1 || back.Redefined[0] != "Add" {
		t.Errorf("Redefined = %v", back.Redefined)
	}
	if len(back.ModifiedAttributes) != 1 || back.ModifiedAttributes[0] != "count" {
		t.Errorf("ModifiedAttributes = %v", back.ModifiedAttributes)
	}
}

func TestLoadJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage", "not json"},
		{"bad category", `{"class":{"name":"A"},"methods":[{"id":"m1","name":"A","category":"builder"}]}`},
		{"bad domain kind", `{"class":{"name":"A"},"attributes":[{"name":"x","domain":{"kind":"widget"}}]}`},
		{"range missing limits", `{"class":{"name":"A"},"attributes":[{"name":"x","domain":{"kind":"range"}}]}`},
		{"bad param domain", `{"class":{"name":"A"},"methods":[{"id":"m1","name":"A","category":"constructor","params":[{"name":"p","domain":{"kind":"zap"}}]}]}`},
		{"invalid spec", `{"class":{"name":""}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadJSON(strings.NewReader(tc.src)); err == nil {
				t.Error("LoadJSON should fail")
			}
		})
	}
}

func TestSpecJSONAllDomainKinds(t *testing.T) {
	src := `
Class('Kinds', No, <empty>, <empty>)
Attribute('r', range, 1, 5)
Attribute('f', range, 0.5, 1.5)
Attribute('s', set, [1, 2])
Attribute('ss', set, ['a', 'b'])
Attribute('str', string, 1, 4)
Attribute('strc', string, ['x', 'y'])
Attribute('o', object, 'Widget')
Attribute('p', pointer, 'Widget', nullable)
Attribute('b', bool)
Method(m1, 'Kinds', <empty>, constructor, 0)
Method(m2, '~Kinds', <empty>, destructor, 0)
Node(n1, Yes, 1, [m1])
Node(n2, No, 0, [m2])
Edge(n1, n2)
`
	orig, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatalf("LoadJSON: %v\n%s", err, buf.String())
	}
	for i := range orig.Attributes {
		if !sameDomainDecl(back.Attributes[i].Domain, orig.Attributes[i].Domain) {
			t.Errorf("attribute %q domain changed: %+v vs %+v",
				orig.Attributes[i].Name, back.Attributes[i].Domain, orig.Attributes[i].Domain)
		}
	}
}
