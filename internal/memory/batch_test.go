package memory

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/resilient"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
	"repro/internal/trace"
)

// pimAddr returns the PIM-enabled DBC of the given bank/subarray under
// the default geometry (tile 0, last DBC).
func pimAddr(g params.Geometry, bank, sub, row int) isa.Addr {
	return isa.Addr{Bank: bank, Subarray: sub, Tile: 0, DBC: g.DBCsPerTile - 1, Row: row}
}

// addRequest builds one k-operand add whose operands and destination
// live in the PIM DBC of the given subarray, with deterministic lane
// data seeded by tag.
func addRequest(t *testing.T, m *Memory, g params.Geometry, bank, sub, tag int) Request {
	t.Helper()
	width := m.Config().Geometry.TrackWidth
	operands := make([]isa.Addr, 3)
	for i := range operands {
		operands[i] = pimAddr(g, bank, sub, i)
		vals := make([]uint64, width/8)
		for l := range vals {
			vals[l] = uint64(tag*31+i*7+l*3+1) % 256
		}
		if err := m.WriteRow(operands[i], pim.MustPackLanes(vals, 8, width)); err != nil {
			t.Fatal(err)
		}
	}
	return Request{
		In:       isa.Instruction{Op: isa.OpAdd, Src: pimAddr(g, bank, sub, 0), Blocksize: 8, Operands: 3},
		Operands: operands,
		Dst:      pimAddr(g, bank, sub, 10),
	}
}

// TestExecuteBatchMatchesSerial is the core determinism contract:
// ExecuteBatch over independent DBCs returns exactly what serial
// Execute calls return, leaves identical memory state, and its
// telemetry totals equal the serial run's.
func TestExecuteBatchMatchesSerial(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	const nDBC = 8

	build := func() (*Memory, []Request) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, 0, 2*nDBC)
		for s := 0; s < nDBC; s++ {
			reqs = append(reqs, addRequest(t, m, g, 0, s, s))
		}
		// A second wave over the same DBCs: overlapping footprints, must
		// stay in program order behind the first wave.
		for s := 0; s < nDBC; s++ {
			r := addRequest(t, m, g, 0, s, 100+s)
			r.Dst = pimAddr(g, 0, s, 11)
			reqs = append(reqs, r)
		}
		return m, reqs
	}

	serialM, serialReqs := build()
	serialRes := make([]Result, len(serialReqs))
	for i, r := range serialReqs {
		serialRes[i].Row, serialRes[i].Err = serialM.Execute(r.In, r.Operands, r.Dst)
	}
	serialStats := serialM.Stats()

	m, reqs := build()
	res := m.ExecuteBatch(reqs)
	if len(res) != len(serialRes) {
		t.Fatalf("got %d results, want %d", len(res), len(serialRes))
	}
	for i := range res {
		if (res[i].Err == nil) != (serialRes[i].Err == nil) {
			t.Fatalf("request %d: err=%v, serial err=%v", i, res[i].Err, serialRes[i].Err)
		}
		if !res[i].Row.Equal(serialRes[i].Row) {
			t.Errorf("request %d: batch result differs from serial", i)
		}
	}
	// Device accounting parity, snapshotted before the state comparison
	// below adds read traffic of its own.
	if gs := m.Stats(); gs != serialStats {
		t.Errorf("stats differ:\nbatch  %+v\nserial %+v", gs, serialStats)
	}
	// Memory state parity: every destination row matches.
	for i, r := range reqs {
		got, err := m.ReadRow(r.Dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialM.ReadRow(r.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("request %d: dst row differs from serial", i)
		}
	}
}

// TestBatchTelemetryTotalsEqualSerial: after a batch, the memory
// recorder's cycle clock, energy total and ledger, and its profiler's
// stream-wide totals (per kind, per span and per mark), equal a serial
// run's exactly — the window markers are ledger-free.
func TestBatchTelemetryTotalsEqualSerial(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	const nDBC = 8

	run := func(batch bool) (*Memory, *profile.Profiler) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prof := profile.New(cfg)
		m.SetTelemetry(telemetry.NewRecorder(cfg, prof))
		reqs := make([]Request, 0, nDBC)
		for s := 0; s < nDBC; s++ {
			reqs = append(reqs, addRequest(t, m, g, 0, s, s))
		}
		if batch {
			for i, r := range m.ExecuteBatch(reqs) {
				if r.Err != nil {
					t.Fatalf("request %d: %v", i, r.Err)
				}
			}
		} else {
			for i, r := range reqs {
				if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
		}
		return m, prof
	}

	serial, serialProf := run(false)
	bat, batProf := run(true)

	if gc, wc := bat.Recorder().Cycle(), serial.Recorder().Cycle(); gc != wc {
		t.Errorf("cycle clock: batch %d, serial %d", gc, wc)
	}
	if ge, we := bat.Recorder().EnergyPJ(), serial.Recorder().EnergyPJ(); ge != we {
		t.Errorf("energy: batch %v, serial %v", ge, we)
	}
	for op := telemetry.Op(0); op < telemetry.OpSpan; op++ {
		if gm, wm := bat.Recorder().Metrics().Op(op), serial.Recorder().Metrics().Op(op); gm != wm {
			t.Errorf("%v metrics: batch %+v, serial %+v", op, gm, wm)
		}
	}
	if gm, wm := bat.Moves(), serial.Moves(); gm != wm {
		t.Errorf("moves: batch %+v, serial %+v", gm, wm)
	}
	gt, wt := batProf.Totals(), serialProf.Totals()
	if len(wt.Spans) == 0 {
		t.Fatal("serial run profiled no spans")
	}
	if !reflect.DeepEqual(gt, wt) {
		t.Errorf("profiler totals:\nbatch  %+v\nserial %+v", gt, wt)
	}
	// The cycle-clock == trace.Stats contract survives the window markers.
	if got, want := bat.Recorder().Cycle(), bat.Stats().Cycles(); got != uint64(want) {
		t.Errorf("recorder cycle %d != stats cycles %d", got, want)
	}
}

// TestRecorderEnergyIsPricedLedger: after mixed batch traffic — execs
// of several opcodes next to writes, copies and reads — the memory
// recorder's energy is its integer ledger priced once, exactly
// Stats().EnergyPJ, also under NMR-3 recovery with injected faults
// (replicas, retry stalls and votes on top of the plain steps).
func TestRecorderEnergyIsPricedLedger(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof FaultProfile
		pol  resilient.Policy
	}{
		{name: "plain"},
		{name: "nmr3+faults", prof: FaultProfile{TRProb: 5e-3, Seed: 13}, pol: resilient.DefaultPolicy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := params.DefaultConfig()
			cfg.Geometry.TrackWidth = 64
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mixedTraffic(t, m, tc.prof, tc.pol)
			if got, want := m.Recorder().EnergyPJ(), m.Stats().EnergyPJ(cfg.Energy, cfg.TRD); got != want {
				t.Errorf("recorder energy %.17g != priced Stats %.17g", got, want)
			}
		})
	}
}

// TestLedgerMatchesProfile: the recorder's ledger and the profiler
// count one event stream, so after mixed batch traffic, then the same
// traffic under NMR-3 recovery with injected faults (faults, marks and
// stalls on top of the plain steps), every event kind's ledger entry is
// the profiler's per-kind steps and wires, and the profiler's per-kind
// energies sum to the recorder's priced ledger.
func TestLedgerMatchesProfile(t *testing.T) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 64
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(cfg)
	rec := telemetry.NewRecorder(cfg, prof)
	m.SetTelemetry(rec)
	mixedTraffic(t, m, FaultProfile{}, resilient.Policy{})
	mixedTraffic(t, m, FaultProfile{TRProb: 5e-3, Seed: 13}, resilient.DefaultPolicy())

	ledger, tot := rec.Metrics(), prof.Totals()
	for _, op := range []telemetry.Op{telemetry.OpFault, telemetry.OpMark, telemetry.OpStall, telemetry.OpRowCopy} {
		if ledger.Count(op) == 0 {
			t.Errorf("traffic recorded no %v event", op)
		}
	}
	var pj float64
	for op := telemetry.Op(0); op < telemetry.Op(telemetry.NumOps); op++ {
		o := tot.Ops[op]
		if got, want := ledger.Op(op), (telemetry.OpMetrics{Steps: o.Steps, WiresTotal: o.WiresTotal}); got != want {
			t.Errorf("%v: ledger %+v, profiler %+v", op, got, want)
		}
		pj += o.EnergyPJ
	}
	if want := rec.EnergyPJ(); math.Abs(pj-want) > 1e-9*want {
		t.Errorf("profiler energy %.17g, recorder energy %.17g", pj, want)
	}
}

// mixedTraffic runs twelve batches on m under the given faults and
// recovery policy: in each, one exec per bank (add, mult, max or xor)
// beside a write, a copy or a read. Recovery must detect a fault when
// it is on.
func mixedTraffic(t *testing.T, m *Memory, faults FaultProfile, pol resilient.Policy) {
	t.Helper()
	g := m.Config().Geometry
	m.SetFaultProfile(faults)
	if err := m.SetRecovery(pol); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	ops := []isa.OpCode{isa.OpAdd, isa.OpMult, isa.OpMax, isa.OpXor}
	for b := 0; b < 12; b++ {
		reqs := make([]Request, 0, 16)
		for bank := 0; bank < 8; bank++ {
			in := isa.Instruction{Op: ops[rng.Intn(len(ops))], Src: pimAddr(g, bank, b%4, 0), Blocksize: 8, Operands: 2}
			if in.Op == isa.OpMult {
				in.Blocksize = 16
			}
			operands := []isa.Addr{pimAddr(g, bank, b%4, 0), pimAddr(g, bank, b%4, 1)}
			for _, a := range operands {
				vals := make([]uint64, g.TrackWidth/in.Blocksize)
				for l := range vals {
					vals[l] = uint64(rng.Intn(100))
				}
				if err := m.WriteRow(a, pim.MustPackLanes(vals, in.Blocksize, g.TrackWidth)); err != nil {
					t.Fatal(err)
				}
			}
			dst := pimAddr(g, bank, b%4, 10)
			reqs = append(reqs, Request{In: in, Operands: operands, Dst: dst})
			side := isa.Addr{Bank: bank, Subarray: 1, Tile: 2, Row: b}
			switch bank % 3 {
			case 0:
				row := pim.MustPackLanes([]uint64{uint64(rng.Intn(256))}, 8, g.TrackWidth)
				reqs = append(reqs, Request{Kind: KindWrite, Dst: side, Row: row})
			case 1:
				reqs = append(reqs, Request{Kind: KindCopy, Src: dst, Dst: side})
			default:
				reqs = append(reqs, Request{Kind: KindRead, Src: side})
			}
		}
		for i, r := range m.ExecuteBatch(reqs) {
			if r.Err != nil {
				t.Fatalf("batch %d request %d: %v", b, i, r.Err)
			}
		}
	}
	if pol.Enabled() && m.Health().TotalDetected == 0 {
		t.Fatal("no faults detected: the recovery path went unexercised")
	}
}

// TestExecuteBatchErrorIsolation: invalid requests fail alone; the rest
// of the batch still runs.
func TestExecuteBatchErrorIsolation(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := addRequest(t, m, g, 0, 0, 1)
	crossBank := addRequest(t, m, g, 0, 1, 2)
	crossBank.Operands[1].Bank = 3 // outside the executing DBC's bank
	notPIM := good
	notPIM.In.Src = isa.Addr{Bank: 0, Subarray: 0, Tile: 5, DBC: 0}

	res := m.ExecuteBatch([]Request{good, crossBank, notPIM})
	if res[0].Err != nil {
		t.Errorf("good request failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrCrossDBC) {
		t.Errorf("cross-bank request: err=%v, want ErrCrossDBC", res[1].Err)
	}
	if res[2].Err == nil {
		t.Error("non-PIM src request succeeded")
	}
}

// TestExecuteCrossDBCValidatesBeforeLocking: a request that fails the
// bank rule must not move any row or touch any counter (validation
// precedes lock acquisition and staging).
func TestExecuteCrossDBCValidatesBeforeLocking(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := addRequest(t, m, g, 0, 0, 1)
	before := m.Stats()
	movesBefore := m.Moves()

	r.Dst.Bank = 5
	if _, err := m.Execute(r.In, r.Operands, r.Dst); !errors.Is(err, ErrCrossDBC) {
		t.Fatalf("err=%v, want ErrCrossDBC", err)
	}
	r.Dst.Bank = 0
	r.Operands[0].Bank = 7
	if _, err := m.Execute(r.In, r.Operands, r.Dst); !errors.Is(err, ErrCrossDBC) {
		t.Fatalf("err=%v, want ErrCrossDBC", err)
	}

	if after := m.Stats(); after != before {
		t.Errorf("failed execute moved device counters: before %+v after %+v", before, after)
	}
	if after := m.Moves(); after != movesBefore {
		t.Errorf("failed execute recorded row moves: before %+v after %+v", movesBefore, after)
	}
	// Staging across banks is still possible — explicitly, via CopyRow.
	src := isa.Addr{Bank: 7, Subarray: 0, Tile: 2, DBC: 1, Row: 0}
	if err := m.CopyRow(src, r.Operands[0]); err != nil {
		t.Fatalf("CopyRow staging: %v", err)
	}
	r.Operands[0].Bank = 0
	if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
		t.Fatalf("execute after staging: %v", err)
	}
}

// TestBatchStressDifferential extends the refdbc differential-harness
// pattern to the concurrent engine: random concurrent
// ExecuteBatch/WriteRow/ReadRow traffic over ≥8 DBCs (run under -race),
// then a bit-identical comparison against the serial engine driven by
// the same seed.
func TestBatchStressDifferential(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	width := g.TrackWidth
	const (
		seed  = 12345
		nDBC  = 10
		waves = 4
	)

	// genReqs deterministically derives each wave's requests from the
	// seed; memory contents are (re)written before each wave so the
	// serial and concurrent engines see identical inputs.
	genReqs := func(rng *rand.Rand, m *Memory) []Request {
		reqs := make([]Request, 0, nDBC)
		for s := 0; s < nDBC; s++ {
			k := 2 + rng.Intn(2)
			operands := make([]isa.Addr, k)
			for i := range operands {
				operands[i] = pimAddr(g, 0, s, i)
				vals := make([]uint64, width/8)
				for l := range vals {
					vals[l] = rng.Uint64() % 256
				}
				if err := m.WriteRow(operands[i], pim.MustPackLanes(vals, 8, width)); err != nil {
					t.Fatal(err)
				}
			}
			op := isa.OpAdd
			switch rng.Intn(3) {
			case 1:
				op = isa.OpMax
			case 2:
				op = isa.OpXor
			}
			reqs = append(reqs, Request{
				In:       isa.Instruction{Op: op, Src: pimAddr(g, 0, s, 0), Blocksize: 8, Operands: k},
				Operands: operands,
				Dst:      pimAddr(g, 0, s, 12),
			})
		}
		return reqs
	}

	run := func(batch bool) *Memory {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for w := 0; w < waves; w++ {
			reqs := genReqs(rng, m)
			if batch {
				// Concurrent mutators on unrelated DBCs while the batch
				// runs: plain traffic in other banks must not interfere.
				var wg sync.WaitGroup
				stop := make(chan struct{})
				for gi := 0; gi < 4; gi++ {
					wg.Add(1)
					go func(gi int) {
						defer wg.Done()
						a := isa.Addr{Bank: 2 + gi, Subarray: gi, Tile: 4, DBC: 1, Row: gi}
						row := pim.MustPackLanes([]uint64{uint64(gi + 1)}, 16, width)
						for {
							select {
							case <-stop:
								return
							default:
							}
							if err := m.WriteRow(a, row); err != nil {
								t.Error(err)
								return
							}
							if got, err := m.ReadRow(a); err != nil || !got.Equal(row) {
								t.Errorf("side traffic: err=%v equal=%v", err, err == nil && got.Equal(row))
								return
							}
						}
					}(gi)
				}
				for i, r := range m.ExecuteBatch(reqs) {
					if r.Err != nil {
						t.Fatalf("wave %d request %d: %v", w, i, r.Err)
					}
				}
				close(stop)
				wg.Wait()
			} else {
				for i, r := range reqs {
					if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
						t.Fatalf("wave %d request %d: %v", w, i, err)
					}
				}
			}
		}
		return m
	}

	serial := run(false)
	bat := run(true)
	for s := 0; s < nDBC; s++ {
		dst := pimAddr(g, 0, s, 12)
		want, err := serial.ReadRow(dst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bat.ReadRow(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("DBC %d: batch result differs from serial engine", s)
		}
	}
}

// TestStatsSafeDuringBatch calls Stats()/Moves() continuously while a
// batch is in flight (satellite 6; meaningful under -race).
func TestStatsSafeDuringBatch(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 0, 8)
	for s := 0; s < 8; s++ {
		reqs = append(reqs, addRequest(t, m, g, 0, s, s))
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
			_ = m.Stats()
			_ = m.Moves()
		}
	}()
	for round := 0; round < 5; round++ {
		for i, r := range m.ExecuteBatch(reqs) {
			if r.Err != nil {
				t.Fatalf("round %d request %d: %v", round, i, r.Err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if got, want := m.Recorder().Cycle(), m.Stats().Cycles(); got != uint64(want) {
		t.Errorf("recorder cycle %d != stats cycles %d after batches", got, want)
	}
}

// TestRecorderSafeDuringBatch hammers Recorder and SetTelemetry from
// another goroutine while batches run: Recorder reads the recorder
// without the memory's lock and SetTelemetry waits for the batch, so a
// race on the recorder or a setter that wedges a running batch shows
// up here as a -race report or a watchdog timeout.
func TestRecorderSafeDuringBatch(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 0, 8)
	for s := 0; s < 8; s++ {
		reqs = append(reqs, addRequest(t, m, g, 0, s, 100+s))
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
			rec := m.Recorder()
			m.SetTelemetry(rec) // the locked write path, same recorder back
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 5; round++ {
			for i, r := range m.ExecuteBatch(reqs) {
				if r.Err != nil {
					t.Errorf("round %d request %d: %v", round, i, r.Err)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("batch execution wedged while SetTelemetry contended for the memory's lock; check that runBatch takes m.mu once and releases it on every path")
	}
	close(stop)
	wg.Wait()
}

// TestSetTelemetryWaitsForBatch: a recorder swap waits for the batch
// in flight, so the batch's steps land on the recorder that carries its
// window markers. A sink on the old recorder calls SetTelemetry(fresh)
// from another goroutine at the batch's second lane and gives it 200 ms
// to return; if it returns mid-batch, the second group's steps land on
// fresh, outside any window.
func TestSetTelemetryWaitsForBatch(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{addRequest(t, m, g, 0, 0, 0), addRequest(t, m, g, 0, 1, 1)}
	fresh := telemetry.NewRecorder(cfg)
	sink := &swapSink{m: m, fresh: fresh, returned: make(chan struct{})}
	old := telemetry.NewRecorder(cfg, sink)
	m.SetTelemetry(old)
	for i, r := range m.ExecuteBatch(reqs) {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	select {
	case <-sink.returned:
	case <-time.After(60 * time.Second):
		t.Fatal("SetTelemetry never returned after the batch")
	}
	if got := fresh.Cycle(); got != 0 {
		t.Errorf("%d of the batch's %d cycles landed on the recorder swapped in mid-batch",
			got, got+old.Cycle())
	}
	if m.Recorder() != fresh {
		t.Error("the swap did not take effect after the batch")
	}
}

// swapSink swaps its memory's recorder for fresh at the second window
// lane it sees, waiting up to 200 ms for SetTelemetry to return.
type swapSink struct {
	m        *Memory
	fresh    *telemetry.Recorder
	lanes    int
	returned chan struct{}
}

func (s *swapSink) Emit(e telemetry.Event) {
	if e.Op != telemetry.OpWindow || e.Name != telemetry.WindowMarkLane {
		return
	}
	if s.lanes++; s.lanes != 2 {
		return
	}
	go func() {
		s.m.SetTelemetry(s.fresh)
		close(s.returned)
	}()
	select {
	case <-s.returned:
	case <-time.After(200 * time.Millisecond):
	}
}

func (s *swapSink) Close() error { return nil }

// TestBatchProfilerSnapshotEqualsSerial is the hardware profiler's
// batch acceptance test: with the spatial profiler attached as a sink,
// ExecuteBatch must produce a per-DBC snapshot — wear maps, head
// occupancy, per-port shift-distance histograms, energy — bit-identical
// to a serial run, because reordering disjoint groups commutes.
func TestBatchProfilerSnapshotEqualsSerial(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	const nDBC = 8

	run := func(batch bool) *profile.Profiler {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prof := profile.New(cfg)
		m.SetTelemetry(telemetry.NewRecorder(cfg, prof))
		reqs := make([]Request, 0, nDBC)
		for s := 0; s < nDBC; s++ {
			reqs = append(reqs, addRequest(t, m, g, 0, s, s))
		}
		if batch {
			for i, r := range m.ExecuteBatch(reqs) {
				if r.Err != nil {
					t.Fatalf("request %d: %v", i, r.Err)
				}
			}
		} else {
			for i, r := range reqs {
				if _, err := m.Execute(r.In, r.Operands, r.Dst); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
		}
		return prof
	}

	serial := run(false).Snapshot()
	bat := run(true).Snapshot()
	if len(serial) == 0 {
		t.Fatal("serial run profiled no sources")
	}
	if !reflect.DeepEqual(serial, bat) {
		t.Errorf("profiler snapshots differ between serial and batch runs")
		for i := range serial {
			if i < len(bat) && !reflect.DeepEqual(serial[i], bat[i]) {
				t.Errorf("first divergence at %s:\nserial %+v\nbatch  %+v",
					serial[i].Src, serial[i], bat[i])
				break
			}
		}
	}
}

// errClass names the sentinel an error wraps, for comparing how two
// paths fail.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCrossDBC):
		return "cross-dbc"
	case errors.Is(err, ErrInvalidRequest):
		return "invalid"
	}
	return "other"
}

// ledger is what one request may change in a memory's accounting.
type ledger struct {
	stats            trace.Stats
	moves            MoveStats
	cycle, makespan  uint64
	materializedDBCs int
}

func ledgerOf(m *Memory) ledger {
	rec := m.Recorder()
	return ledger{m.Stats(), m.Moves(), rec.Cycle(), rec.Makespan(), m.MaterializedDBCs()}
}

// since returns what changed from an earlier ledger of the same memory.
func (l ledger) since(was ledger) ledger {
	l.stats.Add(was.stats.Scale(-1))
	l.moves.RowReads -= was.moves.RowReads
	l.moves.RowWrites -= was.moves.RowWrites
	l.moves.RowCopies -= was.moves.RowCopies
	l.cycle -= was.cycle
	l.makespan -= was.makespan
	l.materializedDBCs -= was.materializedDBCs
	return l
}

// TestSingleRequestIsOneRequestBatch: Execute, CopyRow, WriteRow and
// ReadRow are one-request plans, so each call on one memory and
// ExecuteBatch([]Request{r}) on its twin return the same row and the
// same error class, and move Stats, Moves, Cycle, Makespan and the
// materialized-DBC count by the same amounts. A rejected request wraps
// ErrInvalidRequest and materializes nothing, whichever path it takes.
func TestSingleRequestIsOneRequestBatch(t *testing.T) {
	single, twin := testMemory(t), testMemory(t)
	g := single.Config().Geometry
	rng := rand.New(rand.NewSource(22))
	exec := isa.Addr{Tile: 0, DBC: g.DBCsPerTile - 1}
	row := func(r int) isa.Addr { a := exec; a.Row = r; return a }
	far := isa.Addr{Bank: 0, Subarray: 1, Tile: 3, DBC: 2, Row: 5} // same bank, another DBC
	outside := isa.Addr{Bank: g.Banks}
	add := isa.Instruction{Op: isa.OpAdd, Src: exec, Blocksize: 8, Operands: 3}

	type call struct {
		name string
		req  Request
		do   func(m *Memory) (dbc.Row, error)
		want string // error class; a rejected call may change nothing
	}
	write := func(a isa.Addr, r dbc.Row, want string) call {
		return call{"WriteRow", Request{Kind: KindWrite, Dst: a, Row: r},
			func(m *Memory) (dbc.Row, error) { return dbc.Row{}, m.WriteRow(a, r) }, want}
	}
	read := func(a isa.Addr, want string) call {
		return call{"ReadRow", Request{Kind: KindRead, Src: a},
			func(m *Memory) (dbc.Row, error) { return m.ReadRow(a) }, want}
	}
	cp := func(src, dst isa.Addr, want string) call {
		return call{"CopyRow", Request{Kind: KindCopy, Src: src, Dst: dst},
			func(m *Memory) (dbc.Row, error) { return dbc.Row{}, m.CopyRow(src, dst) }, want}
	}
	ex := func(ops []isa.Addr, dst isa.Addr, want string) call {
		return call{"Execute", Request{In: add, Operands: ops, Dst: dst},
			func(m *Memory) (dbc.Row, error) { return m.Execute(add, ops, dst) }, want}
	}
	calls := []call{
		write(row(0), randRow(g.TrackWidth, rng), "ok"),
		write(row(1), randRow(g.TrackWidth, rng), "ok"),
		write(far, randRow(g.TrackWidth, rng), "ok"),
		read(row(1), "ok"),
		cp(far, row(2), "ok"),
		cp(row(0), isa.Addr{Subarray: 2, Tile: 4, DBC: 1}, "ok"), // materializes the destination
		ex([]isa.Addr{row(0), row(1), far}, row(3), "ok"),        // stages far over the row buffer
		ex([]isa.Addr{row(3), row(3), row(2)}, far, "ok"),
		read(far, "ok"),
		read(isa.Addr{Bank: 3, Tile: 7}, "ok"), // a fresh DBC reads back zeros

		write(isa.Addr{Bank: 1, Tile: 6}, dbc.NewRow(2*g.TrackWidth), "invalid"),
		write(outside, dbc.NewRow(g.TrackWidth), "invalid"),
		read(outside, "invalid"),
		cp(outside, isa.Addr{Bank: 2, Tile: 6}, "invalid"),
		cp(isa.Addr{Bank: 2, Tile: 6}, outside, "invalid"),
		ex([]isa.Addr{row(0), row(1), row(2)}, outside, "invalid"),
		ex([]isa.Addr{row(0), row(1), {Bank: 1, Tile: 6}}, row(4), "cross-dbc"),
	}
	for i, c := range calls {
		before := ledgerOf(single)
		got, err := c.do(single)
		after := ledgerOf(single)

		twinBefore := ledgerOf(twin)
		res := twin.ExecuteBatch([]Request{c.req})[0]
		twinAfter := ledgerOf(twin)

		if errClass(err) != c.want || errClass(res.Err) != c.want {
			t.Errorf("call %d, %s: single err %v, batch err %v; want class %q", i, c.name, err, res.Err, c.want)
		}
		if c.name == "ReadRow" || c.name == "Execute" {
			if !got.Equal(res.Row) {
				t.Errorf("call %d, %s: single row %v, batch row %v", i, c.name, got, res.Row)
			}
		}
		d, td := after.since(before), twinAfter.since(twinBefore)
		if d != td {
			t.Errorf("call %d, %s: single call moved %+v, one-request batch %+v", i, c.name, d, td)
		}
		if c.want != "ok" && d != (ledger{}) {
			t.Errorf("call %d, %s: rejected request changed the memory's ledger by %+v", i, c.name, d)
		}
	}
	// Every row the calls touched holds the same data on both memories.
	for _, a := range []isa.Addr{row(0), row(1), row(2), row(3), far, {Subarray: 2, Tile: 4, DBC: 1}} {
		x, err := single.ReadRow(a)
		if err != nil {
			t.Fatal(err)
		}
		y, err := twin.ReadRow(a)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Equal(y) {
			t.Errorf("row %+v: single %v, batch %v", a, x, y)
		}
	}
}
