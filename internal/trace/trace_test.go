package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"corun/internal/units"
)

func TestSeriesAddAndAccess(t *testing.T) {
	s := NewSeries("power", "w")
	for i := 0; i < 5; i++ {
		if err := s.Add(units.Seconds(i), float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if got := s.At(2); got.Time != 2 || got.Value != 12 {
		t.Errorf("At(2) = %+v", got)
	}
}

func TestSeriesRejectsOutOfOrder(t *testing.T) {
	s := NewSeries("x", "u")
	if err := s.Add(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(4, 1); err == nil {
		t.Error("out-of-order sample accepted")
	}
	// Equal timestamps are allowed (two events in the same instant).
	if err := s.Add(5, 2); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestMustAddPanics(t *testing.T) {
	s := NewSeries("x", "u")
	s.MustAdd(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("MustAdd on out-of-order sample did not panic")
		}
	}()
	s.MustAdd(1, 1)
}

func TestMaxMeanEmpty(t *testing.T) {
	s := NewSeries("x", "u")
	if s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty series statistics should be zero")
	}
}

func TestMaxMean(t *testing.T) {
	s := NewSeries("x", "u")
	for _, v := range []float64{3, 9, 6} {
		s.MustAdd(units.Seconds(s.Len()), v)
	}
	if s.Max() != 9 {
		t.Errorf("Max = %v, want 9", s.Max())
	}
	if s.Mean() != 6 {
		t.Errorf("Mean = %v, want 6", s.Mean())
	}
}

func TestCountAbove(t *testing.T) {
	s := NewSeries("p", "w")
	for i, v := range []float64{14, 15.5, 16.2, 14.9, 17.0} {
		s.MustAdd(units.Seconds(i), v)
	}
	n, maxEx := s.CountAbove(15)
	if n != 3 {
		t.Errorf("CountAbove(15) n = %d, want 3", n)
	}
	if maxEx != 2 {
		t.Errorf("max excess = %v, want 2", maxEx)
	}
}

func TestSamplesCopy(t *testing.T) {
	s := NewSeries("x", "u")
	s.MustAdd(0, 1)
	got := s.Samples()
	got[0].Value = 99
	if s.At(0).Value == 99 {
		t.Error("Samples() exposes internal storage")
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewSeries("power", "w")
	s.MustAdd(0, 14.5)
	s.MustAdd(1, 15.25)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time_s,power_w\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.000,15.2500") {
		t.Errorf("missing row: %q", out)
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := NewSeries("power", "w")
	s.MustAdd(0, 14.5)
	s.MustAdd(1.5, 15.25)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Series
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "power" || back.Unit != "w" || back.Len() != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.At(1).Time != 1.5 || back.At(1).Value != 15.25 {
		t.Errorf("sample mangled: %+v", back.At(1))
	}
	// Out-of-order samples in the payload are rejected.
	bad := []byte(`{"name":"x","unit":"u","samples":[{"t":5,"v":1},{"t":1,"v":2}]}`)
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Error("out-of-order payload accepted")
	}
}

func TestWriteMultiCSV(t *testing.T) {
	a := NewSeries("a", "w")
	b := NewSeries("b", "w")
	a.MustAdd(0, 1)
	a.MustAdd(1, 2)
	b.MustAdd(1, 10)
	b.MustAdd(2, 20)
	var sb strings.Builder
	if err := WriteMultiCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4: %q", len(lines), sb.String())
	}
	if lines[0] != "time_s,a_w,b_w" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.000,1.0000,") || !strings.HasSuffix(lines[1], ",") {
		t.Errorf("row with missing b value malformed: %q", lines[1])
	}
	if lines[2] != "1.000,2.0000,10.0000" {
		t.Errorf("shared-timestamp row = %q", lines[2])
	}
}

func TestWriteJSON(t *testing.T) {
	a := NewSeries("makespan", "s")
	a.MustAdd(1, 10)
	a.MustAdd(2, 20)
	b := NewSeries("power", "W")
	b.MustAdd(1, 14.5)
	var buf strings.Builder
	if err := WriteJSON(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Series []*Series `json:"series"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 2 || out.Series[0].Name != "makespan" || out.Series[1].Len() != 1 {
		t.Fatalf("round trip: %+v", out.Series)
	}
	if out.Series[0].At(1).Value != 20 {
		t.Errorf("sample lost: %+v", out.Series[0].Samples())
	}
}

// A holder that trims after every add keeps the newest samples only:
// capacity+k adds leave capacity samples, the k oldest gone, still in
// time order and still refusing a sample older than the last.
func TestTrimKeepsNewest(t *testing.T) {
	const capacity, extra = 4, 3
	s := NewSeries("epochs", "s")
	for i := 0; i < capacity+extra; i++ {
		s.MustAdd(units.Seconds(i), float64(10*i))
		s.Trim(capacity)
		if want := min(i+1, capacity); s.Len() != want {
			t.Fatalf("after %d adds the series holds %d samples, want %d", i+1, s.Len(), want)
		}
	}
	for i := 0; i < s.Len(); i++ {
		if want := (Sample{Time: units.Seconds(extra + i), Value: float64(10 * (extra + i))}); s.At(i) != want {
			t.Errorf("sample %d = %+v, want %+v", i, s.At(i), want)
		}
	}
	if err := s.Add(units.Seconds(capacity+extra-2), 0); err == nil {
		t.Error("a trimmed series accepted an out-of-order sample")
	}
	s.Trim(capacity + 1) // nothing to drop
	if s.Len() != capacity {
		t.Errorf("trimming above the length changed it to %d", s.Len())
	}
}

func TestCloneIndependent(t *testing.T) {
	s := NewSeries("p", "W")
	s.MustAdd(0, 1)
	c := s.Clone()
	s.MustAdd(1, 2)
	if c.Name != "p" || c.Unit != "W" || c.Len() != 1 || c.At(0) != s.At(0) {
		t.Errorf("clone %+v of %+v", c, s)
	}
}
