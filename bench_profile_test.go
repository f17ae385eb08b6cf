// Hardware-profiler overhead benchmarks (recorded in
// BENCH_profile.json): the same hot operations as bench_obs_test.go
// with the full spatial profiler attached as the recorder's sink, read
// against BenchmarkTelemetryOn*, the same unit with no sink. The
// profiler is a sink, so a recorder without one does none of its work.
package coruscant

import (
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/telemetry"
	"repro/internal/telemetry/profile"
)

// BenchmarkProfileOnAddMulti attaches the spatial profiler — per-DBC
// wear, occupancy and shift-distance aggregation on every event.
func BenchmarkProfileOnAddMulti(b *testing.B) {
	u, rows := addMultiFixture()
	cfg := params.DefaultConfig()
	u.SetTelemetry(telemetry.NewRecorder(cfg, profile.New(cfg)), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.AddMulti(rows, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileOnBulkBitwise(b *testing.B) {
	u, rows := bulkFixture()
	cfg := params.DefaultConfig()
	u.SetTelemetry(telemetry.NewRecorder(cfg, profile.New(cfg)), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.BulkBitwise(dbc.OpXOR, rows); err != nil {
			b.Fatal(err)
		}
	}
}
