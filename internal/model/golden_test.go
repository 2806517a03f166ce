package model

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/units"
)

// TestCharacterizeGolden pins the characterization itself: the sha256
// of Save's bytes for both machine presets on three bandwidth grids,
// each measured at 1, 2 and 7 workers, must equal the line in
// testdata/characterize.sha256. A change to the simulator or the
// micro-kernel that moves one degradation value by one ulp fails here,
// as does a worker pool whose result depends on the schedule.
func TestCharacterizeGolden(t *testing.T) {
	grids := []struct {
		name   string
		levels []units.GBps
	}{
		{"default", nil},
		{"levels5x11", Levels(5, 11)},
		{"levels17x14", Levels(17, 14)},
	}
	machines := []struct {
		name string
		cfg  func() *apu.Config
	}{
		{"default", apu.DefaultConfig},
		{"kaveri", apu.KaveriConfig},
	}
	var got bytes.Buffer
	for _, m := range machines {
		for _, g := range grids {
			var sum string
			for _, workers := range []int{1, 2, 7} {
				c, err := characterize(CharacterizeOptions{Cfg: m.cfg(), Mem: memsys.Default(), Levels: g.levels}, workers)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := c.Save(&buf); err != nil {
					t.Fatal(err)
				}
				s := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				if sum != "" && s != sum {
					t.Errorf("%s/%s: %d workers saved %s, 1 worker %s", m.name, g.name, workers, s, sum)
				}
				sum = s
			}
			fmt.Fprintf(&got, "%s %s %s\n", m.name, g.name, sum)
		}
	}
	name := filepath.Join("testdata", "characterize.sha256")
	want, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("characterization differs from %s:\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
	}
}
