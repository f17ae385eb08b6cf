package memory

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// TestConcurrentAccess hammers one memory from many goroutines (run
// with -race to validate the locking): disjoint addresses must never
// interfere and every read must see its own write.
func TestConcurrentAccess(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := isa.Addr{Bank: g % 8, Subarray: g, Tile: 3, DBC: 2, Row: g % 32}
			row := pim.MustPackLanes([]uint64{uint64(g), uint64(g * 7)}, 16, 32)
			for i := 0; i < 20; i++ {
				if err := m.WriteRow(a, row); err != nil {
					errs <- err
					return
				}
				got, err := m.ReadRow(a)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(row) {
					errs <- errMismatch{g, i}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m.Moves().RowWrites != 16*20 {
		t.Errorf("writes = %d, want %d", m.Moves().RowWrites, 16*20)
	}
}

type errMismatch [2]int

func (e errMismatch) Error() string { return "concurrent read saw foreign data" }

// TestConcurrentExecute runs PIM operations from several goroutines,
// each against its own subarray's PIM DBC.
func TestConcurrentExecute(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := isa.Addr{Subarray: g, Tile: 1, DBC: 0, Row: 0}
			dst := isa.Addr{Subarray: g, Tile: 1, DBC: 0, Row: 1}
			pimDBC := isa.Addr{Subarray: g, Tile: 0, DBC: 15}
			av := uint64(10 * (g + 1))
			row := pim.MustPackLanes([]uint64{av}, 16, 32)
			if err := m.WriteRow(src, row); err != nil {
				errs <- err
				return
			}
			in := isa.Instruction{Op: isa.OpAdd, Src: pimDBC, Blocksize: 16, Operands: 2}
			res, err := m.Execute(in, []isa.Addr{src, src}, dst)
			if err != nil {
				errs <- err
				return
			}
			if got := pim.UnpackLanes(res, 16)[0]; got != 2*av {
				errs <- errMismatch{g, int(got)}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQuarantineUnderConcurrentReaders runs batches under fault
// injection with a recovery policy that quarantines a DBC at its first
// detected fault, so processQuarantines remaps clusters under the
// memory's lock, while another goroutine reads the health and shard
// state and swaps the same recorder back in. Under -race (make
// race-obs) it must neither race nor wedge, and the ledger must record
// the quarantines.
func TestQuarantineUnderConcurrentReaders(t *testing.T) {
	pol := resilient.DefaultPolicy()
	pol.QuarantineAfter = 1
	m := faultyMemory(t, FaultProfile{TRProb: 0.05, Seed: 5}, pol)
	g := m.Config().Geometry
	reqs := make([]Request, 0, 4)
	for bank := 0; bank < 4; bank++ {
		reqs = append(reqs, addRequest(t, m, g, bank, 0, bank))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.Health()
			_ = m.MaterializedDBCs()
			m.SetTelemetry(m.Recorder())
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			for i, r := range m.ExecuteBatch(reqs) {
				if r.Err != nil && !errors.Is(r.Err, ErrQuarantined) {
					t.Errorf("round %d request %d: %v", round, i, r.Err)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("batches under recovery wedged next to concurrent readers")
	}
	close(stop)
	wg.Wait()
	if h := m.Health(); len(h.Quarantined) == 0 {
		t.Fatalf("no quarantine at QuarantineAfter=1; ledger: %+v", h)
	}
}
