// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core PIM operations. Each experiment benchmark
// reports the headline quantity of its table/figure as a custom metric,
// so a bench run doubles as a reproduction log.
package coruscant

import (
	"strconv"
	"testing"

	"repro/internal/area"
	"repro/internal/baseline/spim"
	"repro/internal/dbc"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/reliability"
	"repro/internal/workloads/bitmapidx"
	"repro/internal/workloads/cnn"
	"repro/internal/workloads/polybench"
)

// --- Experiment benchmarks (one per table/figure) -------------------------

// BenchmarkTable1 regenerates the PIM area-overhead table; the reported
// metric is the full-design overhead percentage (paper: 10.0%).
func BenchmarkTable1(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead = area.TableI(params.DefaultGeometry())[area.Full]
	}
	b.ReportMetric(overhead*100, "overhead-%")
}

// BenchmarkTable3 measures the 8-bit five-operand add and multiply on
// the bit-level simulator; metrics are the cycle counts (paper: 26/64)
// and the speedup over SPIM (paper: 6.9×).
func BenchmarkTable3(b *testing.B) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 16
	var addCycles, multCycles int
	for i := 0; i < b.N; i++ {
		u := pim.MustNewUnit(cfg)
		rows := make([]dbc.Row, 5)
		for j := range rows {
			rows[j] = pim.MustPackLanes([]uint64{uint64(13 * (j + 1))}, 8, 16)
		}
		if _, err := u.AddMulti(rows, 8); err != nil {
			b.Fatal(err)
		}
		addCycles = u.Stats().Cycles()
		u2 := pim.MustNewUnit(cfg)
		if _, err := u2.MultiplyValues([]uint64{173}, []uint64{89}, 8); err != nil {
			b.Fatal(err)
		}
		multCycles = u2.Stats().Cycles()
	}
	b.ReportMetric(float64(addCycles), "add-cycles")
	b.ReportMetric(float64(multCycles), "mult-cycles")
	b.ReportMetric(float64(spim.Add5LatOpt(8).Cycles)/float64(addCycles), "speedup-vs-SPIM")
}

// BenchmarkTable4 regenerates the CNN throughput matrix; the metric is
// the CORUSCANT-7/SPIM full-precision AlexNet speedup (paper: 2.8×).
func BenchmarkTable4(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		cells, err := cnn.Table4()
		if err != nil {
			b.Fatal(err)
		}
		c7, err := cnn.Find(cells, "CORUSCANT-7", cnn.Full, "Alexnet")
		if err != nil {
			b.Fatal(err)
		}
		sp, err := cnn.Find(cells, "SPIM", cnn.Full, "Alexnet")
		if err != nil {
			b.Fatal(err)
		}
		speedup = c7.FPS / sp.FPS
	}
	b.ReportMetric(speedup, "C7/SPIM-x")
}

// BenchmarkTable5 regenerates the reliability table; the metric is the
// TMR-protected 8-bit add error exponent (paper: ≈5.6e-12 → -11.25).
func BenchmarkTable5(b *testing.B) {
	var tmrAdd float64
	for i := 0; i < b.N; i++ {
		p := reliability.DefaultTRFaultProb
		q := reliability.AddErrorRate(8, p) / 8
		var err error
		tmrAdd, err = reliability.NModular(3, q, p, params.TRD7, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tmrAdd*1e12, "tmr-add-1e-12")
}

// BenchmarkTable6 regenerates the NMR CNN table; the metric is the
// TRD=7 ternary AlexNet TMR throughput (paper: 155.8 FPS).
func BenchmarkTable6(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		cells, err := cnn.Table6()
		if err != nil {
			b.Fatal(err)
		}
		c, err := cnn.FindNMR(cells, params.TRD7, 3, cnn.TWN, "Alexnet")
		if err != nil {
			b.Fatal(err)
		}
		fps = c.FPS
	}
	b.ReportMetric(fps, "tmr-twn-alexnet-fps")
}

// BenchmarkFig10 regenerates the Polybench latency comparison; the
// metric is the average DWM-CPU/PIM improvement (paper: 2.07×).
func BenchmarkFig10(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		avg = lastRowValue(t, 2)
	}
	b.ReportMetric(avg, "dwm-latency-x")
}

// BenchmarkFig11 regenerates the Polybench energy comparison; the metric
// is the average energy reduction (paper: >25×).
func BenchmarkFig11(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		avg = lastRowValue(t, 3)
	}
	b.ReportMetric(avg, "energy-x")
}

// BenchmarkFig12 regenerates the bitmap-index query; the metric is the
// CORUSCANT speedup over ELP²IM at three criteria (paper: 1.6×).
func BenchmarkFig12(b *testing.B) {
	sys := mem.NewSystem(params.DefaultConfig())
	store := bitmapidx.NewStore(1<<24, 4, 20061)
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := bitmapidx.Query(store, 2, sys)
		if err != nil {
			b.Fatal(err)
		}
		var elp, cor float64
		for _, r := range results {
			switch r.Engine {
			case "ELP2IM":
				elp = r.LatencyNS
			case "CORUSCANT":
				cor = r.LatencyNS
			}
		}
		speedup = elp / cor
	}
	b.ReportMetric(speedup, "vs-elp2im-x")
}

func lastRowValue(t *experiments.Table, col int) float64 {
	row := t.Rows[len(t.Rows)-1]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		panic(err)
	}
	return v
}

// --- Micro-benchmarks of the core operations -------------------------------

// BenchmarkAddMulti benchmarks the 512-wire five-operand addition (64
// 8-bit lanes per call).
func BenchmarkAddMulti(b *testing.B) {
	u := pim.MustNewUnit(params.DefaultConfig())
	rows := make([]dbc.Row, 5)
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i * 3 % 256)
	}
	for i := range rows {
		rows[i] = pim.MustPackLanes(vals, 8, 512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.AddMulti(rows, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBCAddMulti is BenchmarkAddMulti under the name matched by
// the CI bench target (`make bench` runs 'BenchmarkDBC|BenchmarkBulk'),
// so the word-packed engine's multi-operand-add throughput is tracked
// alongside the DBC primitive benchmarks.
func BenchmarkDBCAddMulti(b *testing.B) { BenchmarkAddMulti(b) }

// BenchmarkMultiply benchmarks the 512-wire 8-bit multiply (32 lanes).
func BenchmarkMultiply(b *testing.B) {
	u := pim.MustNewUnit(params.DefaultConfig())
	vals := make([]uint64, 32)
	for i := range vals {
		vals[i] = uint64(i*7 + 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.MultiplyValues(vals, vals, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkBitwise benchmarks a seven-operand XOR over 512 wires.
func BenchmarkBulkBitwise(b *testing.B) {
	u := pim.MustNewUnit(params.DefaultConfig())
	rows := make([]dbc.Row, 7)
	for i := range rows {
		rows[i] = dbc.NewRow(512)
		for j := 0; j < 512; j++ {
			rows[i].Set(j, uint8((i+j)%2))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.BulkBitwise(dbc.OpXOR, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxTR benchmarks the seven-candidate max tournament.
func BenchmarkMaxTR(b *testing.B) {
	u := pim.MustNewUnit(params.DefaultConfig())
	rows := make([]dbc.Row, 7)
	for i := range rows {
		vals := make([]uint64, 64)
		for j := range vals {
			vals[j] = uint64((i*37 + j*11) % 256)
		}
		rows[i] = pim.MustPackLanes(vals, 8, 512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.MaxTR(rows, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolybenchGemm benchmarks the instrumented gemm kernel run.
func BenchmarkPolybenchGemm(b *testing.B) {
	k, err := polybench.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var c polybench.Ctx
		k.Run(&c, 32)
	}
}

// BenchmarkTinyCNNInference benchmarks the bit-exact in-memory CNN.
func BenchmarkTinyCNNInference(b *testing.B) {
	cfg := params.DefaultConfig()
	cfg.Geometry.TrackWidth = 256
	u := pim.MustNewUnit(cfg)
	net := &cnn.Sequential{Layers: []cnn.PIMLayer{
		&cnn.ConvLayer{W: [][][3][3]int{{{{1, -2, 1}, {2, 4, -1}, {-3, 1, 2}}}}, B: []int{0}},
		cnn.PoolLayer{},
	}}
	img := cnn.NewTensor3(1, 6, 6)
	for y := range img[0] {
		for x := range img[0][y] {
			img[0][y][x] = (y*7 + x*3) % 16
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(u, img); err != nil {
			b.Fatal(err)
		}
	}
}
