package layout

import (
	"strings"
	"testing"
)

func TestLookupDefault(t *testing.T) {
	b, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if b.Info().Name != DefaultBackend {
		t.Fatalf("empty name resolved to %q, want %q", b.Info().Name, DefaultBackend)
	}
	if name, err := CanonicalName(""); err != nil || name != DefaultBackend {
		t.Fatalf("CanonicalName(\"\") = %q, %v", name, err)
	}
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := Lookup("herringbone")
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	if !strings.Contains(err.Error(), DefaultBackend) {
		t.Fatalf("error %q does not list registered backends", err)
	}
}

func TestBackendsSortedAndDescribed(t *testing.T) {
	infos := Backends()
	if len(infos) == 0 {
		t.Fatal("no backends registered")
	}
	for i, info := range infos {
		if info.Name == "" || info.Description == "" {
			t.Fatalf("incomplete descriptor %+v", info)
		}
		if i > 0 && infos[i-1].Name >= info.Name {
			t.Fatalf("backends not sorted: %q before %q", infos[i-1].Name, info.Name)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(slicingBackend{})
}

func TestMetricName(t *testing.T) {
	if got := MetricName("a-b.c"); got != "a_b_c" {
		t.Fatalf("MetricName = %q", got)
	}
}
