package model

import (
	"encoding/json"
	"fmt"
	"io"

	"corun/internal/apu"
)

// persistedChar is the on-disk JSON form of a Characterization.
type persistedChar struct {
	Version   int          `json:"version"`
	CPULevels []int        `json:"cpu_levels"`
	GPULevels []int        `json:"gpu_levels"`
	Surfaces  [][]*Surface `json:"surfaces"`
}

// persistVersion guards against silently loading incompatible files.
const persistVersion = 1

// Save writes the characterization as JSON. The offline stage of
// section V is the expensive part of deployment; persisting it lets a
// runtime load the degradation space instead of re-measuring it.
func (c *Characterization) Save(w io.Writer) error {
	if len(c.Surfaces) == 0 {
		return fmt.Errorf("model: refusing to save an empty characterization")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(persistedChar{
		Version:   persistVersion,
		CPULevels: c.CPULevels,
		GPULevels: c.GPULevels,
		Surfaces:  c.Surfaces,
	})
}

// LoadCharacterization reads a characterization saved by Save and
// binds it to the machine description (which supplies the clock values
// of the characterized levels). The machine must have at least as many
// frequency levels as the file references.
func LoadCharacterization(r io.Reader, cfg *apu.Config) (*Characterization, error) {
	var p persistedChar
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("model: decoding characterization: %w", err)
	}
	if p.Version != persistVersion {
		return nil, fmt.Errorf("model: characterization file version %d, want %d", p.Version, persistVersion)
	}
	if err := checkAscending(p.CPULevels, cfg.NumFreqs(apu.CPU)); err != nil {
		return nil, fmt.Errorf("model: CPU levels: %w", err)
	}
	if err := checkAscending(p.GPULevels, cfg.NumFreqs(apu.GPU)); err != nil {
		return nil, fmt.Errorf("model: GPU levels: %w", err)
	}
	if len(p.Surfaces) != len(p.CPULevels) {
		return nil, fmt.Errorf("model: %d surface rows for %d CPU levels", len(p.Surfaces), len(p.CPULevels))
	}
	c := &Characterization{CPULevels: p.CPULevels, GPULevels: p.GPULevels, Surfaces: p.Surfaces}
	for a, row := range p.Surfaces {
		if len(row) != len(p.GPULevels) {
			return nil, fmt.Errorf("model: surface row %d has %d columns for %d GPU levels", a, len(row), len(p.GPULevels))
		}
		for b, s := range row {
			if s == nil {
				return nil, fmt.Errorf("model: missing surface at (%d,%d)", a, b)
			}
			if err := validateSurface(s); err != nil {
				return nil, fmt.Errorf("model: surface (%d,%d): %w", a, b, err)
			}
			// Nothing else reads a surface's own levels, so a surface
			// filed under the wrong cell would be planned with as if
			// measured at that cell's frequencies.
			if s.CPUFreq != p.CPULevels[a] || s.GPUFreq != p.GPULevels[b] {
				return nil, fmt.Errorf("model: surface (%d,%d) was measured at levels (%d,%d), but that cell is levels (%d,%d)",
					a, b, s.CPUFreq, s.GPUFreq, p.CPULevels[a], p.GPULevels[b])
			}
		}
	}
	for _, l := range p.CPULevels {
		c.cpuFreqGHz = append(c.cpuFreqGHz, float64(cfg.Freq(apu.CPU, l)))
	}
	for _, l := range p.GPULevels {
		c.gpuFreqGHz = append(c.gpuFreqGHz, float64(cfg.Freq(apu.GPU, l)))
	}
	return c, nil
}

// validateSurface checks a loaded surface's internal consistency.
func validateSurface(s *Surface) error {
	n := len(s.CPUBW)
	m := len(s.GPUBW)
	if n == 0 || m == 0 {
		return fmt.Errorf("empty bandwidth grid")
	}
	for i := 1; i < n; i++ {
		if s.CPUBW[i] < s.CPUBW[i-1] {
			return fmt.Errorf("CPU bandwidth grid not ascending")
		}
	}
	for j := 1; j < m; j++ {
		if s.GPUBW[j] < s.GPUBW[j-1] {
			return fmt.Errorf("GPU bandwidth grid not ascending")
		}
	}
	if len(s.DegCPU) != n || len(s.DegGPU) != n {
		return fmt.Errorf("degradation tables have %d/%d rows for %d levels", len(s.DegCPU), len(s.DegGPU), n)
	}
	for i := 0; i < n; i++ {
		if len(s.DegCPU[i]) != m || len(s.DegGPU[i]) != m {
			return fmt.Errorf("degradation row %d has wrong width", i)
		}
	}
	return nil
}
