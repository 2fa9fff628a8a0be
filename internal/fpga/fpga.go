// Package fpga models the target device — slices, block RAMs, achievable
// clock — standing in for the paper's Synplify Pro + Xilinx ISE flow on a
// Virtex XCV1000 BG560.
//
// The models are analytic and calibrated, not extracted from a netlist; the
// paper's conclusions need only their trends (slices grow with datapath and
// register count; the clock degrades mildly with register-file fan-in and
// control complexity, ~8% on average for the CPA-RA designs). DESIGN.md §4
// records the calibration constants.
package fpga

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
)

// Device describes one FPGA part.
type Device struct {
	Name         string
	Slices       int
	BlockRAMs    int
	BlockRAMBits int
	// DualPort reports whether block RAMs can be configured dual-ported.
	DualPort bool
	// ClockScale scales the achievable clock period relative to the
	// Virtex-era baseline the model is calibrated against (1.0). Newer
	// process generations close timing faster: a Virtex-II part runs the
	// same netlist at a shorter period. Zero means 1.0.
	ClockScale float64
}

// XCV1000 returns the paper's target: a Xilinx Virtex XCV1000 BG560 —
// 12288 slices and 32 dual-portable 4-kbit block RAMs.
func XCV1000() Device {
	return Device{Name: "XCV1000-BG560", Slices: 12288, BlockRAMs: 32, BlockRAMBits: 4096, DualPort: true}
}

// XC2V6000 returns a paper-era Virtex-II class part: 33792 slices and 144
// dual-portable 18-kbit block RAMs on a 0.15µm process that closes timing
// roughly a third faster than the Virtex baseline.
func XC2V6000() Device {
	return Device{Name: "XC2V6000-FF1152", Slices: 33792, BlockRAMs: 144, BlockRAMBits: 18432, DualPort: true, ClockScale: 0.65}
}

// XC2V1000 returns a small Virtex-II part — 5120 slices, 40 dual-portable
// 18-kbit block RAMs — useful as a capacity-constrained exploration target
// (large design points legitimately fail to fit).
func XC2V1000() Device {
	return Device{Name: "XC2V1000-FG456", Slices: 5120, BlockRAMs: 40, BlockRAMBits: 18432, DualPort: true, ClockScale: 0.65}
}

// Devices returns the built-in presets, the paper's target first.
func Devices() []Device {
	return []Device{XCV1000(), XC2V6000(), XC2V1000()}
}

// ByName resolves a device preset by its full name or its family prefix
// (e.g. "XCV1000" for "XCV1000-BG560"), case-insensitively.
func ByName(name string) (Device, error) {
	for _, d := range Devices() {
		if strings.EqualFold(d.Name, name) {
			return d, nil
		}
	}
	for _, d := range Devices() {
		if prefix, _, ok := strings.Cut(d.Name, "-"); ok && strings.EqualFold(prefix, name) {
			return d, nil
		}
	}
	var names []string
	for _, d := range Devices() {
		names = append(names, d.Name)
	}
	return Device{}, fmt.Errorf("fpga: unknown device %q (have %s)", name, strings.Join(names, ", "))
}

// DesignStats summarizes one hardware design for the area/clock models.
type DesignStats struct {
	// OpCounts is the number of datapath operators instantiated, by kind.
	OpCounts map[ir.OpKind]int
	// Width is the datapath width in bits (widest element involved).
	Width int
	// Registers is the number of data registers (Σβ) and RegisterBits
	// their total width.
	Registers    int
	RegisterBits int
	// Classes is the number of distinct steady-state iteration behaviours
	// the controller must sequence (more classes → wider state decode).
	Classes int
	// Depth is the loop-nest depth (one counter per level).
	Depth int
	// RAMArrays lists the bit sizes of the arrays that remain RAM-mapped.
	RAMArrays []int
}

// Slices estimates the slice count of the design. The model is the same
// on every device, so one count serves each device a design is realized
// on (Device.Fit, Device.Utilization).
//
// Per-operator costs follow Virtex-era LUT structures: ripple adds and
// comparisons cost ~w/2 slices, LUT-based multipliers ~w²/4, dividers
// ~w²/2, logic ~w/2, constant shifts are wiring. Registers cost one slice
// per two bits (two flip-flops per slice); the register-file read network
// costs ~w/8 slices per register of fan-in; control contributes per loop
// counter and per iteration class.
func (s DesignStats) Slices() int {
	w := s.Width
	slices := 0
	for op, n := range s.OpCounts {
		slices += n * opSlices(op, w)
	}
	slices += (s.RegisterBits + 1) / 2
	slices += s.Registers * w / 8
	slices += s.Depth*8 + s.Classes*6 + 24
	return slices
}

func opSlices(op ir.OpKind, w int) int {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMin, ir.OpMax:
		return w/2 + 1
	case ir.OpMul:
		return w*w/4 + 2
	case ir.OpDiv:
		return w*w/2 + 4
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		return (w + 1) / 2
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe:
		return w/2 + 1
	case ir.OpShl, ir.OpShr:
		return 0
	default:
		return w
	}
}

// PeriodNs estimates the post-P&R clock period in nanoseconds on the
// Virtex-era baseline: a device base, the slowest single-cycle datapath
// stage, a register-file fan-in term that grows with the number of
// registers the muxing network must reach, and a control-decode term that
// grows with the number of iteration classes. Device.ClockNs scales it to
// a device and rounds it.
func (s DesignStats) PeriodNs() float64 {
	period := 20.0
	stage := 8.0 // RAM access stage
	for op, n := range s.OpCounts {
		if n == 0 {
			continue
		}
		if t := opStageNs(op, s.Width); t > stage {
			stage = t
		}
	}
	period += stage
	period += 0.06 * float64(s.Registers)
	period += 2.0 * math.Log2(float64(1+s.Classes))
	return period
}

// ClockNs returns the device's clock period for a design whose baseline
// period is periodNs (DesignStats.PeriodNs): scaled by ClockScale, then
// rounded to 0.1 ns.
func (d Device) ClockNs(periodNs float64) float64 {
	if d.ClockScale > 0 {
		periodNs *= d.ClockScale
	}
	return math.Round(periodNs*10) / 10
}

func opStageNs(op ir.OpKind, w int) float64 {
	fw := float64(w)
	switch op {
	case ir.OpMul:
		return 10 + 0.2*fw // multi-cycle unit: per-stage delay
	case ir.OpDiv:
		return 9 + 0.15*fw
	case ir.OpAdd, ir.OpSub, ir.OpMin, ir.OpMax, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe:
		return 4 + 0.15*fw
	case ir.OpAnd, ir.OpOr, ir.OpXor:
		return 2 + 0.05*fw
	default:
		return 3
	}
}

// RAMBlocks returns how many block RAMs the RAM-mapped arrays occupy
// (capacity bin-packing: each array rounds up to whole blocks).
func (d Device) RAMBlocks(s DesignStats) int {
	blocks := 0
	for _, bits := range s.RAMArrays {
		blocks += (bits + d.BlockRAMBits - 1) / d.BlockRAMBits
	}
	return blocks
}

// Fit validates a design of the given slice count (DesignStats.Slices)
// against the device's capacity, slices first, and returns the block RAMs
// its RAM-mapped arrays occupy.
func (d Device) Fit(slices int, s DesignStats) (int, error) {
	if slices > d.Slices {
		return 0, fmt.Errorf("fpga: design needs %d slices, %s has %d", slices, d.Name, d.Slices)
	}
	rb := d.RAMBlocks(s)
	if rb > d.BlockRAMs {
		return 0, fmt.Errorf("fpga: design needs %d block RAMs, %s has %d", rb, d.Name, d.BlockRAMs)
	}
	return rb, nil
}

// Utilization returns the occupancy of a design of the given slice count
// as a percentage of the device's slices.
func (d Device) Utilization(slices int) float64 {
	return 100 * float64(slices) / float64(d.Slices)
}
