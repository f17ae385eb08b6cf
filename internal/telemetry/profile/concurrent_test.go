package profile_test

import (
	"io"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

// TestViewsReadWhileMemoryEmits reads the profiler's views — the text
// report, the snapshot and the Prometheus page — from other goroutines
// while a memory with the profiler attached runs batches, as
// coruscantd's /v1/metrics reads shard profilers while the shards run.
// Under -race (make race-obs) it checks the one aggregate is safe to
// read mid-stream; the final report must count every batch.
func TestViewsReadWhileMemoryEmits(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	g := cfg.Geometry
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(cfg)
	m.SetTelemetry(telemetry.NewRecorder(cfg, prof))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, view := range []func() error{
		func() error { return prof.WriteText(io.Discard) },
		func() error { prof.Snapshot(); return nil },
		func() error { return prof.WritePrometheus(io.Discard) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := view(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	const batches = 20
	row := pim.MustPackLanes([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, 8, g.TrackWidth)
	for b := 0; b < batches; b++ {
		reqs := make([]memory.Request, 0, 4)
		for bank := 0; bank < 4; bank++ {
			pimDBC := isa.Addr{Bank: bank, Subarray: b % 4, DBC: g.DBCsPerTile - 1}
			a, c := pimDBC, pimDBC
			c.Row = 1
			for _, addr := range []isa.Addr{a, c} {
				if err := m.WriteRow(addr, row); err != nil {
					t.Fatal(err)
				}
			}
			dst := pimDBC
			dst.Row = 10
			in := isa.Instruction{Op: isa.OpAdd, Src: pimDBC, Blocksize: 8, Operands: 2}
			reqs = append(reqs, memory.Request{In: in, Operands: []isa.Addr{a, c}, Dst: dst})
		}
		for i, r := range m.ExecuteBatch(reqs) {
			if r.Err != nil {
				t.Fatalf("batch %d request %d: %v", b, i, r.Err)
			}
		}
	}
	close(done)
	wg.Wait()

	if got := prof.Totals().Spans["exec-add"].Count; got != 4*batches {
		t.Errorf("profiled %d exec-add spans, want %d", got, 4*batches)
	}
}
