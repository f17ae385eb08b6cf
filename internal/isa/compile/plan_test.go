package compile

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
)

// TestPlanRunShared pins that a compiled Plan is read-only: one -O 2
// plan runs concurrently on two memories, then twice in a row on one
// memory, and after every run each store holds the program's lane
// reference. Run under -race (make race-obs), a plan that caches state
// per target memory reports the concurrent runs as a data race.
func TestPlanRunShared(t *testing.T) {
	cfg := testCfg(params.TRD7)
	rng := rand.New(rand.NewSource(2026))
	gen := newProgGen(rng, 8, cfg.Geometry.TrackWidth)
	banks := []int{0, 0, 1}
	for i := 0; i < 4; i++ {
		gen.load(banks)
	}
	gen.li()
	for i := 0; i < 12; i++ {
		gen.op()
	}
	for i := 0; i < 4; i++ {
		gen.store(banks)
	}
	res, err := Compile(gen.src.String(), cfg, Options{Level: 2})
	if err != nil {
		t.Fatalf("compile:\n%s\n%v", gen.src.String(), err)
	}
	if res.Stats.Batches < 2 {
		t.Fatalf("plan has %d batch steps; the test wants several", res.Stats.Batches)
	}

	seeded := func() *memory.Memory {
		m, err := memory.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for a, vals := range gen.loads {
			if err := m.WriteRow(a, pim.MustPackLanes(vals, gen.bs, cfg.Geometry.TrackWidth)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	check := func(what string, m *memory.Memory) {
		t.Helper()
		for a, reg := range gen.stores {
			row, err := m.ReadRow(a)
			if err != nil {
				t.Fatalf("%s: read %s: %v", what, isa.FormatAddr(a), err)
			}
			got := pim.UnpackLanes(row, gen.bs)
			for l, want := range gen.vals[reg] {
				if got[l] != want {
					t.Fatalf("%s: %%%s lane %d = %d, want %d\nprogram:\n%s",
						what, reg, l, got[l], want, gen.src.String())
				}
			}
		}
	}

	mems := []*memory.Memory{seeded(), seeded()}
	errs := make([]error, len(mems))
	var wg sync.WaitGroup
	for i, m := range mems {
		wg.Add(1)
		go func(i int, m *memory.Memory) {
			defer wg.Done()
			errs[i] = res.Plan.Run(m)
		}(i, m)
	}
	wg.Wait()
	for i, m := range mems {
		if errs[i] != nil {
			t.Fatalf("concurrent run on memory %d: %v", i, errs[i])
		}
		check("concurrent run", m)
	}

	m := seeded()
	for run := 1; run <= 2; run++ {
		if err := res.Plan.Run(m); err != nil {
			t.Fatalf("run %d on one memory: %v", run, err)
		}
		check("repeated run", m)
	}
}
