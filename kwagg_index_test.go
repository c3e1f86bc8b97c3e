package kwagg

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// heldIndex reads the inverted keyword index a component holds in its
// unexported idx field (the matcher and the SQAK system both keep one).
func heldIndex(component any) uintptr {
	return reflect.ValueOf(component).Elem().FieldByName("idx").Pointer()
}

// TestOneIndexPerEpoch pins that an engine keeps one inverted keyword index
// per data epoch: after Open, and after every CommitEpoch, the matcher and
// the SQAK baseline both hold the index the epoch's database caches
// (relation.Database.Index) instead of building copies of their own.
func TestOneIndexPerEpoch(t *testing.T) {
	check := func(e *Engine, when string) {
		t.Helper()
		st := e.state()
		want := reflect.ValueOf(st.sys.Data.Index()).Pointer()
		if got := heldIndex(st.sys.Matcher); got != want {
			t.Errorf("%s: matcher holds index %#x, the database caches %#x", when, got, want)
		}
		if got := heldIndex(st.sqak); got != want {
			t.Errorf("%s: SQAK holds index %#x, the database caches %#x", when, got, want)
		}
	}
	frozen, err := Open(UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check(frozen, "after Open")

	eng, err := OpenLive(UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check(eng, "after OpenLive")
	for k := 1; k <= 3; k++ {
		if _, err := eng.Ingest("Student", [][]string{{fmt.Sprintf("s9%d", k), "Zed", "20"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CommitEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(eng, fmt.Sprintf("after CommitEpoch %d", k))
	}
}
