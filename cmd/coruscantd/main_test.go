package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry/profile"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, serves a
// request, shuts down gracefully, and checks the listener actually
// closed and post-drain requests were being rejected with 503.
func TestDaemonLifecycle(t *testing.T) {
	d, err := newDaemon([]string{"-addr", "127.0.0.1:0", "-shards", "2", "-track-width", "64"})
	if err != nil {
		t.Fatal(err)
	}
	// A slow or stalled client cannot hold a connection forever.
	if hs := d.http; hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.WriteTimeout != writeTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts = %v/%v/%v/%v, want %v/%v/%v/%v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout,
			readHeaderTimeout, readTimeout, writeTimeout, idleTimeout)
	}
	for _, to := range []time.Duration{readHeaderTimeout, readTimeout, writeTimeout, idleTimeout} {
		if to <= 0 {
			t.Fatalf("timeout %v is not set", to)
		}
	}
	served := make(chan error, 1)
	go func() { served <- d.serve() }()
	base := "http://" + d.lis.Addr().String()
	api := service.NewClient(base, nil)
	ctx := context.Background()

	h, err := api.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards != 2 || h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	shard := 1
	if _, err := api.Execute(ctx, service.ExecuteRequest{Shard: &shard, Request: service.Request{
		Op: "write", Dst: &service.Addr{Tile: 1}, Blocksize: 8, Values: []uint64{9, 8, 7, 6, 5, 4, 3, 2},
	}}); err != nil {
		t.Fatal(err)
	}
	page, err := api.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The service counters and the per-shard profilers (telemetry is on
	// by default) share one page that must parse as exposition text.
	samples, err := profile.ParsePrometheus(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("metrics page does not parse: %v\n%.300s", err, page)
	}
	found := map[string]float64{}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "coruscantd_") {
			found[s.Name] = s.Value
		}
	}
	if v, ok := found["coruscantd_requests_accepted_total"]; !ok || v < 1 {
		t.Errorf("coruscantd_requests_accepted_total = %v (present %v), want >= 1", v, ok)
	}
	if _, ok := found["coruscantd_inflight"]; !ok {
		t.Errorf("metrics page lacks the coruscantd_inflight gauge; parsed service samples: %v", found)
	}
	// Every Counters field is one counter family on the page: one HELP,
	// one TYPE and one sample carrying the value /v1/health reports.
	// Health is not admitted to a queue, so it moves no counter.
	if h, err = api.Health(ctx); err != nil {
		t.Fatal(err)
	}
	families := map[string]string{
		"Accepted":          "coruscantd_requests_accepted_total",
		"Completed":         "coruscantd_requests_completed_total",
		"Cancelled":         "coruscantd_cancelled_total",
		"RejectedQuota":     "coruscantd_rejected_quota_total",
		"RejectedOverload":  "coruscantd_rejected_overload_total",
		"RejectedDraining":  "coruscantd_rejected_draining_total",
		"CoalescedWindows":  "coruscantd_coalesced_windows_total",
		"CoalescedRequests": "coruscantd_coalesced_requests_total",
	}
	lines := strings.Split(string(page), "\n")
	count := func(prefix string) int {
		n := 0
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				n++
			}
		}
		return n
	}
	checkFamily := func(name, kind string, val uint64) {
		t.Helper()
		for _, prefix := range []string{"# HELP " + name + " ", "# TYPE " + name + " ", name + " "} {
			if n := count(prefix); n != 1 {
				t.Errorf("%q: %d lines, want 1", prefix, n)
			}
		}
		for _, line := range []string{"# TYPE " + name + " " + kind, fmt.Sprintf("%s %d", name, val)} {
			if !slices.Contains(lines, line) {
				t.Errorf("metrics page lacks the line %q", line)
			}
		}
	}
	cv := reflect.ValueOf(h.Counters)
	for i := 0; i < cv.NumField(); i++ {
		field := cv.Type().Field(i).Name
		name, ok := families[field]
		if !ok {
			t.Errorf("Counters.%s has no metric family", field)
			continue
		}
		checkFamily(name, "counter", cv.Field(i).Uint())
	}
	if len(families) != cv.NumField() {
		t.Errorf("%d families for %d Counters fields", len(families), cv.NumField())
	}
	checkFamily("coruscantd_inflight", "gauge", 0)

	if err := d.shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	// Drained service rejects; closed listener refuses.
	if _, err := api.Health(ctx); err == nil {
		t.Fatal("health succeeded after shutdown")
	}
	if _, err := net.DialTimeout("tcp", d.lis.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestDaemonFlagErrors: bad flags and addresses surface as errors, not
// a half-started daemon.
func TestDaemonFlagErrors(t *testing.T) {
	if _, err := newDaemon([]string{"-shards", "0", "-addr", "127.0.0.1:0"}); err == nil {
		// Shards 0 defaults to 1 inside the service; that is fine —
		// only a truly invalid config errors.
		t.Log("shards 0 accepted (defaults to 1)")
	}
	if _, err := newDaemon([]string{"-track-width", "-3"}); err == nil {
		t.Log("negative track width ignored (keeps default)")
	}
	if _, err := newDaemon([]string{"surprise-positional"}); err == nil {
		t.Fatal("positional argument accepted")
	}
	if _, err := newDaemon([]string{"-addr", "256.256.256.256:1"}); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestDrainingRejectionSurvivesUntilListenerCloses: between Drain and
// listener close the daemon answers 503 draining — clients see a clean
// signal, not a connection reset.
func TestDrainingRejectionSurvivesUntilListenerCloses(t *testing.T) {
	d, err := newDaemon([]string{"-addr", "127.0.0.1:0", "-track-width", "64"})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.serve() }()
	api := service.NewClient("http://"+d.lis.Addr().String(), nil)
	ctx := context.Background()

	// Drain without closing the listener (the shutdown sequence does
	// this first), then observe the 503.
	d.srv.Drain()
	_, err = api.Execute(ctx, service.ExecuteRequest{Request: service.Request{
		Op: "read", Src: &service.Addr{Tile: 1},
	}})
	if !errors.Is(err, service.ErrDraining) {
		t.Fatalf("mid-drain err = %v, want ErrDraining", err)
	}
	if err := d.shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
