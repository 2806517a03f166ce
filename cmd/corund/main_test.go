package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/journal"
	"corun/internal/memsys"
	"corun/internal/model"
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

// TestSaveCharacterizationReplacesWhole: -save-char writes through a
// temporary file renamed over the target, so the target is always a
// whole characterization — the new one after a save, the previous one
// after a failed save — and no temporary file is left behind.
func TestSaveCharacterizationReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "char.json")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A failed save keeps the previous file.
	if err := saveCharacterization(&model.Characterization{}, path); err == nil {
		t.Fatal("empty characterization saved")
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "previous" {
		t.Fatalf("after a failed save the file reads %q, %v", b, err)
	}

	cfg := apu.DefaultConfig()
	char, err := loadOrMeasureChar("", path, cfg, memsys.Default())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := char.Save(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("saved file is not the characterization's Save")
	}
	if _, err := model.LoadCharacterization(bytes.NewReader(got), cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after the saves, want only char.json", len(entries))
	}

	// A target that cannot be replaced fails the save and leaves no
	// temporary file.
	if err := saveCharacterization(char, dir); err == nil {
		t.Error("saved over a directory")
	}
	if _, err := os.Stat(dir + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
}
