package fpga

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func sampleStats() DesignStats {
	return DesignStats{
		OpCounts:     map[ir.OpKind]int{ir.OpMul: 2, ir.OpAdd: 1},
		Width:        8,
		Registers:    64,
		RegisterBits: 512,
		Classes:      2,
		Depth:        3,
		RAMArrays:    []int{600 * 8, 1200 * 8},
	}
}

func TestXCV1000Capacity(t *testing.T) {
	d := XCV1000()
	if d.Slices != 12288 || d.BlockRAMs != 32 || d.BlockRAMBits != 4096 {
		t.Fatalf("XCV1000 spec wrong: %+v", d)
	}
	if !d.DualPort {
		t.Fatal("Virtex BRAMs are dual-portable")
	}
}

func TestSlicesComposition(t *testing.T) {
	s := sampleStats()
	total := s.Slices()
	// Remove the multipliers: area must drop by exactly 2·(w²/4+2).
	s2 := sampleStats()
	s2.OpCounts = map[ir.OpKind]int{ir.OpAdd: 1}
	if got, want := total-s2.Slices(), 2*(8*8/4+2); got != want {
		t.Errorf("multiplier area delta = %d, want %d", got, want)
	}
	// Halve the register bits: area drops by 128 slices.
	s3 := sampleStats()
	s3.RegisterBits = 256
	if got, want := total-s3.Slices(), 128; got != want {
		t.Errorf("register area delta = %d, want %d", got, want)
	}
}

func TestSlicesMonotoneInRegisters(t *testing.T) {
	prev := -1
	for regs := 0; regs <= 256; regs += 16 {
		s := sampleStats()
		s.Registers = regs
		s.RegisterBits = regs * 8
		got := s.Slices()
		if got <= prev {
			t.Fatalf("slices not strictly increasing at %d registers: %d then %d", regs, prev, got)
		}
		prev = got
	}
}

func TestOpSlices(t *testing.T) {
	cases := []struct {
		op   ir.OpKind
		w    int
		want int
	}{
		{ir.OpAdd, 16, 9},
		{ir.OpMul, 16, 66},
		{ir.OpDiv, 8, 36},
		{ir.OpXor, 1, 1},
		{ir.OpShl, 32, 0},
		{ir.OpEq, 8, 5},
	}
	for _, tc := range cases {
		if got := opSlices(tc.op, tc.w); got != tc.want {
			t.Errorf("opSlices(%v,%d) = %d, want %d", tc.op, tc.w, got, tc.want)
		}
	}
}

func TestClockPlausibleRange(t *testing.T) {
	d := XCV1000()
	s := sampleStats()
	ns := d.ClockNs(s.PeriodNs())
	// Paper-era designs: tens of nanoseconds.
	if ns < 30 || ns > 80 {
		t.Fatalf("clock %v ns outside the plausible 30-80 ns band", ns)
	}
}

func TestClockDegradesWithRegistersAndClasses(t *testing.T) {
	d := XCV1000()
	small := sampleStats()
	small.Registers = 40
	small.Classes = 1
	big := sampleStats()
	big.Registers = 64
	big.Classes = 3
	cs, cb := d.ClockNs(small.PeriodNs()), d.ClockNs(big.PeriodNs())
	if cb <= cs {
		t.Fatalf("clock must degrade: %v → %v", cs, cb)
	}
	// Degradation stays single-digit-to-low-teens percent, like the paper.
	if pct := 100 * (cb - cs) / cs; pct > 25 {
		t.Fatalf("degradation %.1f%% implausibly large", pct)
	}
}

func TestRAMBlocksRounding(t *testing.T) {
	d := XCV1000()
	s := DesignStats{RAMArrays: []int{4096, 4097, 1, 8192}}
	// 1 + 2 + 1 + 2 blocks.
	if got := d.RAMBlocks(s); got != 6 {
		t.Fatalf("RAMBlocks = %d, want 6", got)
	}
}

func TestFit(t *testing.T) {
	d := XCV1000()
	s := sampleStats()
	if rams, err := d.Fit(s.Slices(), s); err != nil || rams != d.RAMBlocks(s) {
		t.Fatalf("sample design should fit in %d block RAMs: %d, %v", d.RAMBlocks(s), rams, err)
	}
	huge := sampleStats()
	huge.RegisterBits = 1 << 20
	if _, err := d.Fit(huge.Slices(), huge); err == nil {
		t.Fatal("oversized design should not fit")
	}
	manyRAM := sampleStats()
	for i := 0; i < 40; i++ {
		manyRAM.RAMArrays = append(manyRAM.RAMArrays, 4096)
	}
	if _, err := d.Fit(manyRAM.Slices(), manyRAM); err == nil {
		t.Fatal("design with 40+ BRAMs should not fit in 32")
	}
	// Slices are checked first: a device without block RAM bits reports
	// an oversized design without dividing by zero.
	if _, err := (Device{Name: "none"}).Fit(s.Slices(), s); err == nil || !strings.Contains(err.Error(), "slices") {
		t.Fatalf("a device without slices must fail on slices first: %v", err)
	}
}

func TestUtilization(t *testing.T) {
	d := XCV1000()
	s := sampleStats()
	u := d.Utilization(s.Slices())
	if u <= 0 || u >= 100 {
		t.Fatalf("utilization %.2f%% out of range", u)
	}
}

func TestDevicePresets(t *testing.T) {
	ds := Devices()
	if len(ds) < 2 {
		t.Fatalf("Devices() = %d presets, want ≥2", len(ds))
	}
	if ds[0].Name != XCV1000().Name {
		t.Fatalf("Devices()[0] = %s, want the paper's XCV1000 first", ds[0].Name)
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.Name] {
			t.Fatalf("duplicate device preset %s", d.Name)
		}
		seen[d.Name] = true
		if d.Slices <= 0 || d.BlockRAMs <= 0 || d.BlockRAMBits <= 0 {
			t.Fatalf("preset %s has a non-positive capacity: %+v", d.Name, d)
		}
	}
	v2 := XC2V6000()
	if v2.Slices <= XCV1000().Slices || v2.BlockRAMBits <= XCV1000().BlockRAMBits {
		t.Fatalf("XC2V6000 should be strictly larger than XCV1000: %+v", v2)
	}
}

func TestDeviceByName(t *testing.T) {
	for _, name := range []string{"XCV1000-BG560", "XCV1000", "xcv1000", "XC2V6000", "xc2v1000-fg456"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("XC9999"); err == nil {
		t.Error("ByName accepted an unknown device")
	}
}

func TestClockScaleSpeedsVirtexII(t *testing.T) {
	s := sampleStats()
	v1 := XCV1000().ClockNs(s.PeriodNs())
	v2 := XC2V6000().ClockNs(s.PeriodNs())
	if v2 >= v1 {
		t.Fatalf("Virtex-II clock %v ns not faster than Virtex %v ns", v2, v1)
	}
	// The zero value keeps the calibrated baseline.
	var d Device
	d.Slices = 1
	if got := d.ClockNs(s.PeriodNs()); got != v1 {
		t.Fatalf("zero ClockScale changed the baseline clock: %v vs %v", got, v1)
	}
}
