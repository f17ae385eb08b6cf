// Telemetry overhead guard benchmarks (recorded in BENCH_obs.json):
// the same hot operations as BenchmarkAddMulti/BenchmarkBulkBitwise
// run with telemetry disabled (nil recorder — the default engine
// state, whose cost is one branch per hook) and with a recorder that
// has no sink attached (clock, timeline and ledger only). The disabled
// variants must stay within 2% of the un-instrumented seed numbers.
package coruscant

import (
	"testing"

	"repro/internal/dbc"
	"repro/internal/params"
	"repro/internal/pim"
	"repro/internal/telemetry"
)

func addMultiFixture() (*pim.Unit, []dbc.Row) {
	u := pim.MustNewUnit(params.DefaultConfig())
	rows := make([]dbc.Row, 5)
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i * 3 % 256)
	}
	for i := range rows {
		rows[i] = pim.MustPackLanes(vals, 8, 512)
	}
	return u, rows
}

func bulkFixture() (*pim.Unit, []dbc.Row) {
	u := pim.MustNewUnit(params.DefaultConfig())
	rows := make([]dbc.Row, 7)
	for i := range rows {
		rows[i] = dbc.NewRow(512)
		for j := 0; j < 512; j++ {
			rows[i].Set(j, uint8((i+j)%2))
		}
	}
	return u, rows
}

// BenchmarkTelemetryOffAddMulti is the disabled-telemetry guard: the
// unit carries a nil recorder, so every hook is a single branch.
func BenchmarkTelemetryOffAddMulti(b *testing.B) {
	u, rows := addMultiFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.AddMulti(rows, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOnAddMulti attaches a recorder with no sink — the
// cost of the cycle clock and the cost ledger, which every memory pays,
// without building any event.
func BenchmarkTelemetryOnAddMulti(b *testing.B) {
	u, rows := addMultiFixture()
	u.SetTelemetry(telemetry.NewRecorder(params.DefaultConfig()), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.AddMulti(rows, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryRingAddMulti adds a ring sink on top of the ledger
// — the cost of building every event and keeping the stream
// inspectable in memory.
func BenchmarkTelemetryRingAddMulti(b *testing.B) {
	u, rows := addMultiFixture()
	u.SetTelemetry(telemetry.NewRecorder(params.DefaultConfig(), telemetry.NewRingSink(4096)), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.AddMulti(rows, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryOffBulkBitwise(b *testing.B) {
	u, rows := bulkFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.BulkBitwise(dbc.OpXOR, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryOnBulkBitwise(b *testing.B) {
	u, rows := bulkFixture()
	u.SetTelemetry(telemetry.NewRecorder(params.DefaultConfig()), "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.BulkBitwise(dbc.OpXOR, rows); err != nil {
			b.Fatal(err)
		}
	}
}
