package memory

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
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
// recorder's cycle clock, energy total and per-op metrics equal a
// serial run's exactly — the window markers are metrics-free.
func TestBatchTelemetryTotalsEqualSerial(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry
	const nDBC = 8

	run := func(batch bool) *Memory {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
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
		return m
	}

	serial := run(false)
	bat := run(true)

	if gc, wc := bat.Recorder().Cycle(), serial.Recorder().Cycle(); gc != wc {
		t.Errorf("cycle clock: batch %d, serial %d", gc, wc)
	}
	if ge, we := bat.Recorder().EnergyPJ(), serial.Recorder().EnergyPJ(); math.Abs(ge-we) > 1e-6 {
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
	for _, name := range serial.Recorder().Metrics().SpanNames() {
		gs, ws := bat.Recorder().Metrics().Span(name), serial.Recorder().Metrics().Span(name)
		if gs != ws {
			t.Errorf("span %q: batch %+v, serial %+v", name, gs, ws)
		}
	}
	// The cycle-clock == trace.Stats contract survives the window markers.
	if got, want := bat.Recorder().Cycle(), bat.Stats().Cycles(); got != uint64(want) {
		t.Errorf("recorder cycle %d != stats cycles %d", got, want)
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

// TestRecorderSafeDuringBatch pins the lock order of runBatch: the
// cfg-class mutex (taken by Recorder) must be acquired before a group's
// shard locks, never under them. Hammering Recorder and SetTelemetry
// from another goroutine while batches run keeps cfgMu contended
// through the whole batch; a reintroduced inversion shows up here as a
// -race report or a watchdog timeout instead of a silent latent
// deadlock.
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
			m.SetTelemetry(rec) // cfgMu write path, same recorder back
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
		t.Fatal("batch execution wedged while cfg-class mutex was contended; check runBatch's lock order (cfg before shard)")
	}
	close(stop)
	wg.Wait()
}

// TestBatchWithFaultInjectorSerializes: with an injector attached the
// batch must reproduce the serial engine's fault stream bit-for-bit.
func TestBatchWithFaultInjectorSerializes(t *testing.T) {
	cfg := params.DefaultConfig()
	g := cfg.Geometry

	run := func(batch bool) *Memory {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaultInjector(device.NewFaultInjector(0.02, 0.01, 42))
		reqs := make([]Request, 0, 4)
		for s := 0; s < 4; s++ {
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
		return m
	}

	serial := run(false)
	bat := run(true)
	for s := 0; s < 4; s++ {
		dst := pimAddr(g, 0, s, 10)
		want, err := serial.ReadRow(dst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bat.ReadRow(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("DBC %d: faulted batch differs from faulted serial run", s)
		}
	}
}

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
