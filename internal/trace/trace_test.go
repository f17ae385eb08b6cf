package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/params"
)

func TestStatsAddScale(t *testing.T) {
	a := Stats{ShiftSteps: 1, TRSteps: 2, WriteBits: 3, CopySteps: 1, CopyBits: 4}
	b := a
	b.Add(a)
	if b.ShiftSteps != 2 || b.TRSteps != 4 || b.WriteBits != 6 || b.CopyBits != 8 {
		t.Errorf("Add: %+v", b)
	}
	c := a.Scale(3)
	if c.ShiftSteps != 3 || c.TRSteps != 6 || c.WriteBits != 9 || c.CopySteps != 3 {
		t.Errorf("Scale: %+v", c)
	}
}

func TestStatsAddScaleEquivalence(t *testing.T) {
	check := func(sh, tr, w uint8, n uint8) bool {
		s := Stats{ShiftSteps: int(sh), TRSteps: int(tr), WriteBits: int(w)}
		k := int(n%8) + 1
		var acc Stats
		for i := 0; i < k; i++ {
			acc.Add(s)
		}
		return acc == s.Scale(k)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyComposition(t *testing.T) {
	e := params.DefaultEnergy()
	s := Stats{TRWires: 2, WriteBits: 10, ShiftWires: 5, ReadBits: 4, TWBits: 3, CopyBits: 2}
	want := 2*e.TRPJ(params.TRD7) + 10*e.WritePJ + 5*e.ShiftPJ + 4*e.ReadPJ + 3*e.TWPJ + 2*(e.ReadPJ+e.WritePJ)
	if got := s.EnergyPJ(e, params.TRD7); got != want {
		t.Errorf("energy = %v, want %v", got, want)
	}
	if s.EnergyPJ(e, params.TRD3) >= s.EnergyPJ(e, params.TRD7) {
		t.Error("TRD=3 TR energy should be below TRD=7")
	}
}

func TestCostArithmetic(t *testing.T) {
	c := Cost{Cycles: 10, EnergyPJ: 2.5}
	if got := c.Add(Cost{Cycles: 5, EnergyPJ: 1.5}); got.Cycles != 15 || got.EnergyPJ != 4 {
		t.Errorf("Add = %+v", got)
	}
	if got := c.Scale(4); got.Cycles != 40 || got.EnergyPJ != 10 {
		t.Errorf("Scale = %+v", got)
	}
}

func TestOfStats(t *testing.T) {
	s := Stats{TRSteps: 1, TRWires: 8, WriteSteps: 2, WriteBits: 16}
	c := OfStats(s, params.DefaultEnergy(), params.TRD7)
	if c.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", c.Cycles)
	}
	if c.EnergyPJ <= 0 {
		t.Error("energy not positive")
	}
}

func TestStatsString(t *testing.T) {
	for _, c := range []struct {
		s    Stats
		want []string
	}{
		{Stats{ShiftSteps: 1, TRSteps: 2}, []string{"cycles=3", "shifts=1", "trs=2"}},
		{Stats{CopySteps: 2, CopyBits: 128}, []string{"cycles=2", "copies=2", "copy=128"}},
	} {
		str := c.s.String()
		for _, want := range c.want {
			if !strings.Contains(str, want) {
				t.Errorf("String %q missing %q", str, want)
			}
		}
	}
}
