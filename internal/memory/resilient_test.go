package memory

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
)

// faultyMemory builds a small-track memory with per-DBC fault injection
// and the given recovery policy installed.
func faultyMemory(t *testing.T, prof FaultProfile, pol resilient.Policy) *Memory {
	t.Helper()
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultProfile(prof)
	if err := m.SetRecovery(pol); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSetRecoveryValidation(t *testing.T) {
	m := testMemory(t)
	if err := m.SetRecovery(resilient.Policy{Verify: resilient.VerifyNMR, NMR: 4}); err == nil {
		t.Error("NMR 4 should be rejected")
	}
	cfg := params.DefaultConfig()
	cfg.TRD = params.TRD3
	cfg.Geometry.TrackWidth = 32
	m3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = m3.SetRecovery(resilient.Policy{Verify: resilient.VerifyNMR, NMR: 5})
	if !errors.Is(err, params.ErrBadTRD) {
		t.Errorf("NMR 5 on TRD3 memory should wrap ErrBadTRD, got %v", err)
	}
	// Valid install, then disable.
	if err := m.SetRecovery(resilient.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
	if got := m.Recovery(); !got.Enabled() || got.NMR != 3 {
		t.Errorf("Recovery() = %+v after install", got)
	}
	if err := m.SetRecovery(resilient.Policy{}); err != nil {
		t.Fatal(err)
	}
	if m.Recovery().Enabled() {
		t.Error("zero policy should disable recovery")
	}
}

// execAdd stages two operand rows and executes one cpim add on the
// bank's PIM DBC, returning the delivered lane sums.
func execAdd(t *testing.T, m *Memory, bank int, vals [2]uint64) []uint64 {
	t.Helper()
	g := m.Config().Geometry
	pimAddr := isa.Addr{Bank: bank, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
	ops := []isa.Addr{
		{Bank: bank, Subarray: 1, Tile: 1, Row: 0},
		{Bank: bank, Subarray: 1, Tile: 1, Row: 1},
	}
	w := m.Config().Geometry.TrackWidth
	for i, a := range ops {
		if err := m.WriteRow(a, pim.MustPackLanes([]uint64{vals[i]}, 8, w)); err != nil {
			t.Fatal(err)
		}
	}
	dst := isa.Addr{Bank: bank, Subarray: 1, Tile: 2}
	res, err := m.Execute(isa.Instruction{Op: isa.OpAdd, Src: pimAddr, Blocksize: 8, Operands: 2}, ops, dst)
	if err != nil {
		t.Fatal(err)
	}
	return pim.UnpackLanes(res, 8)
}

// TestRecoveredExecutionDetectsFaults: under aggressive TR fault
// injection the recovery layer must observe detections in the health
// ledger while still delivering mostly correct sums.
func TestRecoveredExecutionDetectsFaults(t *testing.T) {
	m := faultyMemory(t, FaultProfile{TRProb: 0.02, Seed: 11}, resilient.DefaultPolicy())
	wrong := 0
	const n = 60
	for i := 0; i < n; i++ {
		a, b := uint64(i%40), uint64((3*i)%40)
		sums := execAdd(t, m, i%4, [2]uint64{a, b})
		if sums[0] != a+b {
			wrong++
		}
	}
	h := m.Health()
	if h.TotalDetected == 0 {
		t.Fatal("no faults detected at TRProb=0.02; detection is not wired")
	}
	if wrong > n/10 {
		t.Errorf("recovered run delivered %d/%d wrong sums", wrong, n)
	}
}

// TestQuarantineRemapsToSpare drives one PIM DBC past its fault
// threshold and checks the full degradation protocol: the logical
// address survives (remapped to a spare), the spare's own address
// leaves the address space, and the ledger records the decision.
func TestQuarantineRemapsToSpare(t *testing.T) {
	pol := resilient.DefaultPolicy()
	pol.QuarantineAfter = 5
	m := faultyMemory(t, FaultProfile{TRProb: 0.05, Seed: 5}, pol)
	g := m.Config().Geometry
	pimAddr := isa.Addr{Bank: 0, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}

	for i := 0; i < 400 && m.Health().SparesUsed() == 0; i++ {
		execAdd(t, m, 0, [2]uint64{uint64(i % 32), uint64(i % 17)})
	}
	h := m.Health()
	if h.SparesUsed() == 0 {
		t.Fatalf("no quarantine after sustained faults; ledger: %+v", h)
	}
	q := h.Quarantined[0]
	if q.Logical != pimAddr {
		t.Errorf("quarantined %+v, want %+v", q.Logical, pimAddr)
	}
	if !q.Remapped || q.Faults < pol.QuarantineAfter {
		t.Errorf("quarantine record = %+v", q)
	}
	if q.Spare.Bank != 0 || !q.Spare.IsPIMEnabled(g) {
		t.Errorf("spare %+v should be a PIM DBC in the victim's bank", q.Spare)
	}

	// The logical address still executes.
	if sums := execAdd(t, m, 0, [2]uint64{9, 4}); sums[0] != 13 {
		// A post-remap fault can still corrupt a sum; only flag systematic
		// failure (the remapped cluster not executing at all is t.Fatal'd
		// inside execAdd).
		t.Logf("post-remap sum = %d (fault injection still active)", sums[0])
	}

	// The spare's own address is out of the address space now.
	_, err := m.ReadRow(q.Spare)
	if !errors.Is(err, ErrQuarantined) {
		t.Errorf("spare access should be ErrQuarantined, got %v", err)
	}
}

// TestQuarantineSpareExhaustion shrinks the geometry to one PIM DBC per
// bank: quarantine has no spare, the cluster fails, and further access
// reports ErrQuarantined.
func TestQuarantineSpareExhaustion(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 32
	cfg.Geometry.SubarraysPerBank = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaultProfile(FaultProfile{TRProb: 0.05, Seed: 5})
	pol := resilient.DefaultPolicy()
	pol.QuarantineAfter = 3
	if err := m.SetRecovery(pol); err != nil {
		t.Fatal(err)
	}
	g := cfg.Geometry
	pimAddr := isa.Addr{Bank: 0, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile}
	ops := []isa.Addr{{Bank: 0, Tile: 1, Row: 0}, {Bank: 0, Tile: 1, Row: 1}}
	row := pim.MustPackLanes([]uint64{3}, 8, g.TrackWidth)
	for _, a := range ops {
		if err := m.WriteRow(a, row); err != nil {
			t.Fatal(err)
		}
	}
	in := isa.Instruction{Op: isa.OpAdd, Src: pimAddr, Blocksize: 8, Operands: 2}
	dst := isa.Addr{Bank: 0, Tile: 2}
	var lastErr error
	for i := 0; i < 600; i++ {
		if _, lastErr = m.Execute(in, ops, dst); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrQuarantined) {
		t.Fatalf("exhausted bank should fail with ErrQuarantined, got %v", lastErr)
	}
	h := m.Health()
	if len(h.Quarantined) == 0 || h.Quarantined[0].Remapped {
		t.Fatalf("ledger should record a failed (unremapped) quarantine: %+v", h)
	}
}

// TestFaultProfileBatchMatchesSerial: under per-DBC fault injection
// with NMR recovery, ExecuteBatch — which reorders disjoint groups —
// must be bit-identical to executing the same requests one at a time in
// program order: outcomes, stats and health ledger alike.
func TestFaultProfileBatchMatchesSerial(t *testing.T) {
	build := func() *Memory {
		cfg := params.DefaultConfig()
		cfg.Geometry.TrackWidth = 32
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaultProfile(FaultProfile{TRProb: 5e-3, Seed: 99})
		if err := m.SetRecovery(resilient.DefaultPolicy()); err != nil {
			t.Fatal(err)
		}
		return m
	}
	const banks = 8
	makeReqs := func(m *Memory) []Request {
		g := m.Config().Geometry
		rng := rand.New(rand.NewSource(4))
		var reqs []Request
		for i := 0; i < 64; i++ {
			bank := i % banks
			ops := []isa.Addr{
				{Bank: bank, Subarray: 1, Tile: 1, Row: i / banks * 2},
				{Bank: bank, Subarray: 1, Tile: 1, Row: i/banks*2 + 1},
			}
			for _, a := range ops {
				v := uint64(rng.Intn(100))
				if err := m.WriteRow(a, pim.MustPackLanes([]uint64{v}, 8, g.TrackWidth)); err != nil {
					t.Fatal(err)
				}
			}
			reqs = append(reqs, Request{
				In: isa.Instruction{
					Op:        isa.OpAdd,
					Src:       isa.Addr{Bank: bank, Tile: 0, DBC: g.DBCsPerTile - g.PIMDBCsPerTile},
					Blocksize: 8, Operands: 2,
				},
				Operands: ops,
				Dst:      isa.Addr{Bank: bank, Subarray: 1, Tile: 2, Row: i / banks},
			})
		}
		return reqs
	}

	serial, batch := build(), build()
	serialReqs := makeReqs(serial)
	serialRes := make([]Result, len(serialReqs))
	for i, r := range serialReqs {
		serialRes[i].Row, serialRes[i].Err = serial.Execute(r.In, r.Operands, r.Dst)
	}
	batchRes := batch.ExecuteBatch(makeReqs(batch))

	for i := range serialRes {
		a, b := serialRes[i], batchRes[i]
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("req %d: err mismatch: %v vs %v", i, a.Err, b.Err)
		}
		if !rowsEqual(a.Row, b.Row) {
			t.Fatalf("req %d: batch result differs from serial", i)
		}
	}
	if serial.Stats() != batch.Stats() {
		t.Errorf("stats diverge:\n  serial: %+v\n  batch:  %+v", serial.Stats(), batch.Stats())
	}
	hs, hb := serial.Health(), batch.Health()
	if hs.TotalDetected != hb.TotalDetected || len(hs.Quarantined) != len(hb.Quarantined) {
		t.Errorf("health diverges: serial detected=%d q=%d, batch detected=%d q=%d",
			hs.TotalDetected, len(hs.Quarantined), hb.TotalDetected, len(hb.Quarantined))
	}
}

func rowsEqual(a, b dbc.Row) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Get(i) != b.Get(i) {
			return false
		}
	}
	return true
}

// TestHealthReportSnapshot: Health() must be a copy, not a live view.
func TestHealthReportSnapshot(t *testing.T) {
	m := faultyMemory(t, FaultProfile{TRProb: 0.02, Seed: 11}, resilient.DefaultPolicy())
	for i := 0; i < 40; i++ {
		execAdd(t, m, 0, [2]uint64{uint64(i % 20), 1})
	}
	h := m.Health()
	if h.TotalDetected == 0 {
		t.Skip("no detections in this window")
	}
	before := h.TotalDetected
	h.Faults[isa.Addr{}] = 1 << 20
	if got := m.Health().TotalDetected; got != before {
		t.Errorf("mutating a report changed the ledger: %d vs %d", got, before)
	}
}
