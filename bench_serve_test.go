// Service front-end benchmarks (recorded in BENCH_serve.json): the
// mixed coruscantd workload — row writes, bulk-bitwise and arithmetic
// executes, multi-op batches, spot-check reads and compiled pimasm
// kernels — driven over real HTTP through service.RunLoad against an
// in-process 2-shard server. Every read is bit-checked against the
// load generator's serial mirrors, so the numbers are for verified
// traffic; req/s and the client-observed p50/p95 latencies are
// reported as custom metrics.
package coruscant

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/params"
	"repro/internal/service"
)

// BenchmarkServe runs one RunLoad soak per iteration: 4 clients on
// disjoint bank slices, 64 requests each, against a 2-shard server
// with no quotas and deep queues (the admission rejections measured by
// the service tests would only add retry noise here).
func BenchmarkServe(b *testing.B) {
	device := params.DefaultConfig()
	device.Geometry.TrackWidth = 64
	srv, err := service.NewServer(service.Config{
		Device: device,
		Shards: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	var sent uint64
	var rep *service.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = service.RunLoad(context.Background(), service.LoadConfig{
			Base:     ts.URL,
			Device:   device,
			Shards:   2,
			Clients:  4,
			Requests: 64,
			Seed:     int64(1000 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Mismatch != 0 || rep.Errors != 0 {
			b.Fatalf("load degraded: %d mismatches, %d errors", rep.Mismatch, rep.Errors)
		}
		sent += rep.Sent
	}
	b.StopTimer()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(rep.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(rep.P95.Nanoseconds()), "p95-ns")
}
