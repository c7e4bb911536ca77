package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lockin/internal/power"
	"lockin/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Cycles(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 0.01 {
		t.Fatalf("mean %f", m)
	}
	p50 := h.Percentile(0.5)
	if p50 < 45 || p50 > 56 {
		t.Fatalf("p50 = %d, want ≈50", p50)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		// Exponential-ish long tail.
		v := uint64(1000 * math.Exp(rng.Float64()*6))
		h.Record(sim.Cycles(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		got := float64(h.Percentile(q))
		want := 1000 * math.Exp(q*6) // analytic quantile of the generator
		if got < want*0.85 || got > want*1.15 {
			t.Fatalf("p%.1f = %.0f, want ≈%.0f", q*100, got, want)
		}
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(vals []uint32) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(sim.Cycles(v))
		}
		prev := uint64(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			p := h.Percentile(q)
			if p < prev {
				return false
			}
			prev = p
		}
		if h.Count() > 0 && h.Percentile(1) > h.Max() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	a, b, c := NewHistogram(), NewHistogram(), NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		v := sim.Cycles(rng.Intn(1_000_000))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		c.Record(v)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != c.Count() || a.Max() != c.Max() || a.Min() != c.Min() {
		t.Fatal("merge lost observations")
	}
	for _, q := range []float64{0.5, 0.95, 0.9999} {
		if a.Percentile(q) != c.Percentile(q) {
			t.Fatalf("merged p%g differs", q*100)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(sim.Cycles(math.MaxUint64))
	if h.Min() != 0 || h.Max() != math.MaxUint64 {
		t.Fatal("extreme values mishandled")
	}
	if h.Percentile(1.5) != h.Percentile(1) {
		t.Fatal("quantile clamp broken")
	}
	if h.Percentile(-1) > h.Percentile(0.1) {
		t.Fatal("negative quantile clamp broken")
	}
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMeasurementDerivedMetrics(t *testing.T) {
	m := Measurement{
		Ops:     1_000_000,
		Window:  2_800_000_000, // 1 second at 2.8 GHz
		Energy:  power.Energy{Package: 80, Cores: 50, DRAM: 20},
		BaseGHz: 2.8,
	}
	if s := m.Seconds(); math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("seconds %f", s)
	}
	if th := m.Throughput(); math.Abs(th-1e6) > 1 {
		t.Fatalf("throughput %f", th)
	}
	if p := m.Power(); math.Abs(p.Total-100) > 1e-6 {
		t.Fatalf("power %+v", p)
	}
	if tpp := m.TPP(); math.Abs(tpp-10_000) > 1e-6 {
		t.Fatalf("TPP %f", tpp)
	}
	if epo := m.EPO(); math.Abs(epo-1e-4) > 1e-12 {
		t.Fatalf("EPO %f", epo)
	}
	if tpp, epo := m.TPP(), m.EPO(); math.Abs(tpp*epo-1) > 1e-9 {
		t.Fatalf("TPP and EPO are not reciprocal: %f %f", tpp, epo)
	}
	var zero Measurement
	if zero.Throughput() != 0 || zero.TPP() != 0 || zero.EPO() != 0 {
		t.Fatal("zero measurement not safe")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation r=%f", r)
	}
	inv := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, inv); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation r=%f", r)
	}
	if Pearson(xs, []float64{1}) != 0 {
		t.Fatal("length mismatch should return 0")
	}
	if Pearson([]float64{1, 1}, []float64{2, 3}) != 0 {
		t.Fatal("zero variance should return 0")
	}
}

func TestJain(t *testing.T) {
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Fatal("no samples, or all zero, should report 0")
	}
	// Perfectly fair: 4 threads × 10 acquisitions.
	if j := Jain([]float64{10, 10, 10, 10}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("even counts: Jain %f, want 1", j)
	}
	// Monopolized: one thread takes nearly everything.
	if j := Jain([]float64{1, 100}); j > 0.6 {
		t.Fatalf("monopoly: Jain %f, want low", j)
	}
	if j := Jain([]float64{0, 0, 0, 7}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("one of four: Jain %f, want 1/4", j)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{1, 2, 4})
	if out[2] != 1 || out[0] != 0.25 {
		t.Fatalf("normalize %v", out)
	}
	if z := Normalize([]float64{0, 0}); z[0] != 0 || z[1] != 0 {
		t.Fatal("all-zero normalize")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "lock", "throughput", "tpp")
	tb.AddRow("MUTEX", 3.14159, 42)
	tb.AddRow("MUTEXEE", 123456.0, 0.0001)
	tb.AddNote("seed %d", 7)
	s := tb.String()
	for _, want := range []string{"== Demo ==", "lock", "MUTEXEE", "# seed 7", "3.142"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	if tb.NumRows() != 2 || len(tb.Rows()) != 2 {
		t.Fatal("row accounting wrong")
	}
}
