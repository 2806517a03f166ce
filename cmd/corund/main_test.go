package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"corun/internal/journal"
)

func TestBuildConfig(t *testing.T) {
	dir := t.TempDir()
	charPath := filepath.Join(dir, "char.json")

	// Measure once, persisting the characterization.
	cfg, err := buildConfig("ivybridge", "hcs+", 15, 64, 10*time.Millisecond, 1, "", charPath, "", "always", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Char == nil || cfg.MaxQueue != 64 || float64(cfg.Cap) != 15 {
		t.Fatalf("config %+v", cfg)
	}
	if cfg.DataDir != "" || cfg.Fsync != journal.FsyncAlways {
		t.Fatalf("durability config %q/%q", cfg.DataDir, cfg.Fsync)
	}

	// Reload the saved characterization — the fleet deployment path —
	// with the durable journal enabled.
	dataDir := filepath.Join(dir, "state")
	cfg2, err := buildConfig("ivybridge", "hcs", 16, 32, 0, 2, charPath, "", dataDir, "never", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Char == nil {
		t.Fatal("characterization not loaded")
	}
	if cfg2.DataDir != dataDir || cfg2.Fsync != journal.FsyncNever {
		t.Fatalf("durability config %q/%q", cfg2.DataDir, cfg2.Fsync)
	}

	if _, err := buildConfig("cray", "hcs+", 15, 0, 0, 1, "", "", "", "always", 0); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := buildConfig("ivybridge", "fifo", 15, 0, 0, 1, "", "", "", "always", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := buildConfig("ivybridge", "hcs+", 15, 0, 0, 1, filepath.Join(dir, "missing.json"), "", "", "always", 0); err == nil {
		t.Error("missing characterization file accepted")
	}
	for _, fsync := range []string{"everysooften", "interval"} {
		_, err := buildConfig("ivybridge", "hcs+", 15, 0, 0, 1, charPath, "", "", fsync, 0)
		if err == nil || !strings.Contains(err.Error(), "always") || !strings.Contains(err.Error(), "never") {
			t.Errorf("-fsync %s: %v, want an error naming always and never", fsync, err)
		}
	}
	if _, err := buildConfig("ivybridge", "hcs+", 15, 0, 0, 1, "", "", "", "always", -40); err == nil {
		t.Error("trip point below ambient accepted")
	}

	// -tmax overrides the preset's trip point on a private copy.
	cfg3, err := buildConfig("ivybridge", "hcs+", 15, 0, 0, 1, charPath, "", "", "always", 62)
	if err != nil {
		t.Fatal(err)
	}
	if cfg3.Machine.Thermal.TMaxC != 62 {
		t.Fatalf("tmax override not applied: %+v", cfg3.Machine.Thermal)
	}
	if cfg.Machine.Thermal.TMaxC == 62 {
		t.Fatal("tmax override mutated the shared preset")
	}
}
