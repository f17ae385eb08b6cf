package bitmapidx

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/params"
)

func compileMemory(t *testing.T) *memory.Memory {
	t.Helper()
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExecuteOnMemoryMatchesReference(t *testing.T) {
	s := NewStore(1000, 4, 33)
	queries := []Expr{
		And(Male(), Week(0), Week(1)),
		Or(Week(0), Week(1), Week(2), Week(3)),
		And(Male(), Or(Week(0), Week(1)), Not(Week(2))),
		Xor(Week(0), Week(1)),
		Not(Male()),
	}
	for i, q := range queries {
		m := compileMemory(t)
		got, err := ExecuteOnMemory(m, s, q)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		want, err := Count(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("query %d (%s): memory count %d, reference %d", i, q, got, want)
		}
		if m.Moves().RowWrites == 0 || m.Stats().TRSteps == 0 {
			t.Errorf("query %d: no memory traffic traced", i)
		}
	}
}

func TestExecuteOnMemoryWideFold(t *testing.T) {
	// A 6-ary AND on TRD=7 folds in one pass per chunk; verify it still
	// counts correctly (and again on TRD=3, which needs three passes).
	s := NewStore(500, 5, 44)
	q := And(Male(), Week(0), Week(1), Week(2), Week(3), Week(4))
	want, err := Count(s, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, trd := range []params.TRD{params.TRD3, params.TRD7} {
		cfg := params.DefaultConfig()
		cfg.TRD = trd
		cfg.Geometry.TrackWidth = 64
		m, err := memory.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteOnMemory(m, s, q)
		if err != nil {
			t.Fatalf("%v: %v", trd, err)
		}
		if got != want {
			t.Errorf("%v: count %d, want %d", trd, got, want)
		}
	}
}

func TestExecuteOnMemoryWorkerInvariant(t *testing.T) {
	// The batched compile path must produce the scalar reference count.
	s := NewStore(2000, 3, 66)
	q := And(Male(), Or(Week(0), Week(1)), Not(Week(2)))
	want, err := Count(s, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteOnMemory(compileMemory(t), s, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("count %d, want %d", got, want)
	}
}

func TestExecuteOnMemoryNonMultipleWidth(t *testing.T) {
	// User counts that do not fill the last row chunk must not leak
	// ghost bits, even through NOT.
	s := NewStore(77, 2, 55)
	m := compileMemory(t)
	got, err := ExecuteOnMemory(m, s, Or(Not(Week(0)), Week(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Errorf("universe count = %d, want 77", got)
	}
}
