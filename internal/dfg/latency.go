package dfg

import (
	"slices"
	"strconv"

	"repro/internal/ir"
)

// Latencies is the operator/memory latency model shared by the allocators
// and the cycle-level scheduler. The paper's abstraction assigns a memory
// access either 0 (register-resident) or a fixed RAM latency, and assumes
// known latencies for numeric operations.
type Latencies struct {
	// Mem is the latency, in cycles, of one RAM-block access.
	Mem int
	// Op maps operator kinds to latencies; DefaultOp covers absent entries.
	Op        map[ir.OpKind]int
	DefaultOp int
}

// DefaultLatencies returns the model used throughout the reproduction:
// RAM access 1 cycle; adds, logic and comparisons 1 cycle; multiplies 2;
// divides 8; constant shifts are wiring and cost nothing.
func DefaultLatencies() Latencies {
	return Latencies{
		Mem: 1,
		Op: map[ir.OpKind]int{
			ir.OpMul: 2,
			ir.OpDiv: 8,
			ir.OpShl: 0,
			ir.OpShr: 0,
		},
		DefaultOp: 1,
	}
}

// Fingerprint returns a canonical string identifying the latency model:
// the RAM latency, the default operator latency and every explicit operator
// override in sorted kind order. Two Latencies with equal fingerprints
// assign identical latencies to every node, so schedule caches can key on
// it.
func (l Latencies) Fingerprint() string {
	// Every kind sorts, not just the defined ones: SchedSpec.Op accepts
	// any integer kind.
	var kindBuf [16]int
	kinds := kindBuf[:0]
	for k := range l.Op {
		kinds = append(kinds, int(k))
	}
	slices.Sort(kinds)
	var buf [64]byte
	b := append(buf[:0], "mem"...)
	b = strconv.AppendInt(b, int64(l.Mem), 10)
	b = append(b, ",def"...)
	b = strconv.AppendInt(b, int64(l.DefaultOp), 10)
	for _, k := range kinds {
		b = append(b, ",op"...)
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(l.Op[ir.OpKind(k)]), 10)
	}
	return string(b)
}

// OpLat returns the latency of one operator.
func (l Latencies) OpLat(op ir.OpKind) int {
	if v, ok := l.Op[op]; ok {
		return v
	}
	return l.DefaultOp
}

// NodeLat builds a LatencyFunc where reference nodes for whose reference
// number (Node.RefID) inReg returns true are register-resident (free) and
// all others pay the RAM access latency. A nil inReg keeps every
// reference in RAM.
func (l Latencies) NodeLat(inReg func(ref int) bool) LatencyFunc {
	return func(n *Node) int {
		if n.Kind == KindRef {
			if inReg != nil && inReg(n.RefID) {
				return 0
			}
			return l.Mem
		}
		return l.OpLat(n.Op)
	}
}
