package main

import (
	"strings"
	"testing"
	"time"

	"fpisa/internal/aggservice"
	"fpisa/internal/transport"
)

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:9099" || o.jobs != 1 || o.workers != 4 || o.pool != 8 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.dynamic || o.capacity != 0 || o.drainTimeout != 0 {
		t.Fatalf("lifecycle defaults: %+v", o)
	}
}

// TestRejectsLineStale asserts stale-epoch refusals alone produce a
// -statsevery "rejects:" line that names them, and a clean switch none.
func TestRejectsLineStale(t *testing.T) {
	if line := rejectsLine(aggservice.WireRejects{}); line != "" {
		t.Fatalf("no rejects printed %q", line)
	}
	line := rejectsLine(aggservice.WireRejects{Stale: 3})
	if !strings.Contains(line, "stale=3") {
		t.Fatalf("stale-only rejects line %q lacks stale=3", line)
	}
}

func TestParseOptionsLifecycleFlags(t *testing.T) {
	o, err := parseOptions([]string{
		"-addr", "127.0.0.1:0", "-jobs", "2", "-workers", "3", "-pool", "4",
		"-dynamic", "-capacity", "5", "-draintimeout", "250ms", "-quota", "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.dynamic || o.capacity != 5 || o.drainTimeout != 250*time.Millisecond {
		t.Fatalf("parsed: %+v", o)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Dynamic || cfg.Capacity != 5 || cfg.DrainTimeout != 250*time.Millisecond ||
		cfg.Jobs != 2 || cfg.MaxOutstanding != 7 {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Ports() != 5*3 {
		t.Fatalf("ports = %d, want capacity x workers", cfg.Ports())
	}
}

func TestParseOptionsRejectsGarbage(t *testing.T) {
	if _, err := parseOptions([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if _, err := parseOptions([]string{"-jobs", "2", "stray"}); err == nil {
		t.Error("positional argument accepted")
	}
	if _, err := parseOptions([]string{"-draintimeout", "soon"}); err == nil {
		t.Error("unparseable duration accepted")
	}
	if _, err := parseOptions([]string{"-weights", "1,heavy"}); err == nil {
		t.Error("unparseable weight accepted")
	}
	if _, err := parseOptions([]string{"-jobs", "2", "-weights", "1,2,4"}); err == nil {
		t.Error("more weights than jobs accepted")
	}
}

func TestParseOptionsWeights(t *testing.T) {
	o, err := parseOptions([]string{"-jobs", "3", "-weights", "1, 2,4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.weights) != 3 || o.weights[0] != 1 || o.weights[1] != 2 || o.weights[2] != 4 {
		t.Fatalf("weights = %v", o.weights)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Weights) != 3 || cfg.Weights[2] != 4 {
		t.Fatalf("config weights = %v", cfg.Weights)
	}
	// Fewer weights than jobs: the tail defaults to 1 at admission.
	o, err = parseOptions([]string{"-jobs", "3", "-weights", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.weights) != 1 || o.weights[0] != 5 {
		t.Fatalf("partial weights = %v", o.weights)
	}
	if _, err := o.switchConfig(); err != nil {
		t.Fatalf("partial weights rejected: %v", err)
	}
	// A negative weight is caught by Config.Validate.
	o, _ = parseOptions([]string{"-jobs", "1", "-weights", "-2"})
	if _, err := o.switchConfig(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestSwitchConfigValidation(t *testing.T) {
	// Invalid service config surfaces from Validate.
	o, err := parseOptions([]string{"-jobs", "3", "-capacity", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.switchConfig(); err == nil {
		t.Error("capacity below jobs accepted")
	}
	// -workers 0 with -dynamic must reach Validate's clean error, not a
	// divide-by-zero in the headroom default.
	o, err = parseOptions([]string{"-workers", "0", "-dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.switchConfig(); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("zero workers: %v", err)
	}
	// Port budget: capacity x workers must fit the one-byte UDP frame.
	o, err = parseOptions([]string{"-jobs", "4", "-capacity", "40", "-workers", "10"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.switchConfig(); err == nil || !strings.Contains(err.Error(), "ports") {
		t.Errorf("port overflow: %v", err)
	}
}

func TestSwitchConfigDynamicHeadroom(t *testing.T) {
	// -dynamic without -capacity provisions admission headroom (2x jobs)…
	o, err := parseOptions([]string{"-dynamic", "-jobs", "3", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 6 {
		t.Fatalf("capacity = %d, want 6", cfg.Capacity)
	}
	// …clamped to what the one-byte frame can address.
	o, err = parseOptions([]string{"-dynamic", "-jobs", "2", "-workers", "100"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 2 || cfg.Ports() > transport.MaxWorkers {
		t.Fatalf("clamped capacity = %d, ports = %d", cfg.Capacity, cfg.Ports())
	}
	// Static switches get no implicit headroom.
	o, _ = parseOptions([]string{"-jobs", "3"})
	cfg, err = o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 0 || cfg.Ports() != 3*4 {
		t.Fatalf("static config: capacity=%d ports=%d", cfg.Capacity, cfg.Ports())
	}
}

func TestSwitchConfigShardClamp(t *testing.T) {
	o, err := parseOptions([]string{"-jobs", "1", "-pool", "1", "-shards", "64"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.switchConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards > 2 {
		t.Fatalf("shards = %d not clamped to the 2 slots", cfg.Shards)
	}
}
