package metrics

import (
	"strings"
	"testing"
)

func TestAllAttributesCount(t *testing.T) {
	attrs := AllAttributes()
	if len(attrs) != NumAttributes {
		t.Fatalf("AllAttributes() returned %d attributes, want %d", len(attrs), NumAttributes)
	}
}

func TestAttributeIndexesAreDense(t *testing.T) {
	seen := make(map[int]bool, NumAttributes)
	for _, a := range AllAttributes() {
		idx := a.Index()
		if idx < 0 || idx >= NumAttributes {
			t.Errorf("%v index %d out of range", a, idx)
		}
		if seen[idx] {
			t.Errorf("%v duplicates index %d", a, idx)
		}
		seen[idx] = true
	}
}

func TestAttributeNamesUnique(t *testing.T) {
	seen := make(map[string]bool, NumAttributes)
	for _, a := range AllAttributes() {
		name := a.String()
		if seen[name] {
			t.Errorf("duplicate attribute name %q", name)
		}
		if strings.Contains(name, "attribute(") {
			t.Errorf("attribute %d has no canonical name", int(a))
		}
		seen[name] = true
	}
}

func TestInvalidAttribute(t *testing.T) {
	if Attribute(0).Valid() {
		t.Error("attribute 0 should be invalid")
	}
	if Attribute(NumAttributes + 1).Valid() {
		t.Error("attribute 14 should be invalid")
	}
	for a := Attribute(-2); a <= NumAttributes+2; a++ {
		if _, named := attributeNames[a]; a.Valid() != named {
			t.Errorf("Attribute(%d).Valid() = %v, but named = %v", int(a), a.Valid(), named)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Index() on invalid attribute should panic")
		}
	}()
	Attribute(0).Index()
}
