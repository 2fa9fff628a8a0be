package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// SchedSpec is the portable form of one scheduler variant: every value
// sched.Config reads, so a spec reconstructs the configuration exactly.
type SchedSpec struct {
	Name      string      `json:"name"`
	Mem       int         `json:"mem"`          // RAM access latency, cycles
	DefaultOp int         `json:"default_op"`   // operator latency fallback
	Op        map[int]int `json:"op,omitempty"` // ir.OpKind → latency overrides
	Ports     int         `json:"ports"`        // concurrent accesses per RAM block
}

func schedSpecOf(v SchedVariant) SchedSpec {
	s := SchedSpec{
		Name:      v.Name,
		Mem:       v.Config.Lat.Mem,
		DefaultOp: v.Config.Lat.DefaultOp,
		Ports:     v.Config.PortsPerRAM,
	}
	if len(v.Config.Lat.Op) > 0 {
		s.Op = make(map[int]int, len(v.Config.Lat.Op))
		for k, lat := range v.Config.Lat.Op {
			s.Op[int(k)] = lat
		}
	}
	return s
}

// Variant reassembles the scheduler variant the spec describes.
func (s SchedSpec) Variant() SchedVariant {
	lat := dfg.Latencies{Mem: s.Mem, DefaultOp: s.DefaultOp}
	if len(s.Op) > 0 {
		lat.Op = make(map[ir.OpKind]int, len(s.Op))
		for k, v := range s.Op {
			lat.Op[ir.OpKind(k)] = v
		}
	}
	return SchedVariant{Name: s.Name, Config: sched.Config{Lat: lat, PortsPerRAM: s.Ports}}
}

// SpaceSpec is the registry-name form of a Space: a portable, JSON-safe
// description of every axis, the self-describing header a shard file
// carries. Axes resolve back through the package registries
// (kernels.Shared, core.ByName, fpga.ByName), so a spec only round-trips
// for spaces built from registered kernels, allocators and device presets
// — which covers everything the CLIs can express.
type SpaceSpec struct {
	Kernels    []string    `json:"kernels"`
	Allocators []string    `json:"allocators"`
	Budgets    []int       `json:"budgets"`
	Devices    []string    `json:"devices"`
	Scheds     []SchedSpec `json:"scheds"`
	// Portfolio mirrors Space.Portfolio. omitempty keeps the encoding —
	// and so the space fingerprint and shard compatibility — unchanged for
	// ordinary sweeps; a portfolio sweep is a different space (different
	// point set), so its fingerprint must differ.
	Portfolio bool `json:"portfolio,omitempty"`
}

// Spec extracts the portable spec of a space. Pass a normalized space
// (Explore's entry points hand reporters one): empty axes do not resolve
// back.
func Spec(sp Space) SpaceSpec {
	s := SpaceSpec{Portfolio: sp.Portfolio}
	for _, k := range sp.Kernels {
		s.Kernels = append(s.Kernels, k.Name)
	}
	for _, a := range sp.Allocators {
		s.Allocators = append(s.Allocators, a.Name())
	}
	s.Budgets = append(s.Budgets, sp.Budgets...)
	for _, d := range sp.Devices {
		s.Devices = append(s.Devices, d.Name)
	}
	for _, v := range sp.Scheds {
		s.Scheds = append(s.Scheds, schedSpecOf(v))
	}
	return s
}

// Space resolves the spec back into a concrete space through the package
// registries. Its kernels are the process's shared read-only instances
// (kernels.Shared), so resolving a spec parses nothing and every space
// resolved from a spec holds the same nest per kernel. Every axis must be
// populated — specs are taken from normalized spaces, so an empty axis
// means a corrupt or hand-rolled spec — and the space may hold at most
// maxPoints design points, checked before any axis is resolved.
func (s SpaceSpec) Space() (Space, error) {
	if len(s.Kernels) == 0 || len(s.Allocators) == 0 || len(s.Budgets) == 0 ||
		len(s.Devices) == 0 || len(s.Scheds) == 0 {
		return Space{}, fmt.Errorf("dse: space spec has an empty axis (want all of kernels, allocators, budgets, devices, scheds)")
	}
	allocators := len(s.Allocators)
	if s.Portfolio {
		allocators = 1
	}
	if err := checkSize(len(s.Kernels), allocators, len(s.Budgets), len(s.Devices), len(s.Scheds)); err != nil {
		return Space{}, err
	}
	sp := Space{Portfolio: s.Portfolio}
	for _, name := range s.Kernels {
		k, err := kernels.Shared(name)
		if err != nil {
			return Space{}, err
		}
		sp.Kernels = append(sp.Kernels, k)
	}
	for _, name := range s.Allocators {
		a, err := core.ByName(name)
		if err != nil {
			return Space{}, err
		}
		sp.Allocators = append(sp.Allocators, a)
	}
	sp.Budgets = append(sp.Budgets, s.Budgets...)
	for _, name := range s.Devices {
		d, err := fpga.ByName(name)
		if err != nil {
			return Space{}, err
		}
		sp.Devices = append(sp.Devices, d)
	}
	for _, v := range s.Scheds {
		sp.Scheds = append(sp.Scheds, v.Variant())
	}
	return sp, nil
}

// Fingerprint returns a hex digest identifying the space: two
// explorations share a fingerprint iff their normalized specs are
// identical, axis order included (order determines global point
// numbering, so reordered axes are a different space). Shard merging
// refuses to combine files with differing fingerprints.
func (s SpaceSpec) Fingerprint() string {
	// json.Marshal is canonical here: struct fields emit in declaration
	// order and map keys sort.
	data, err := json.Marshal(s)
	if err != nil {
		// Only unmarshalable values reach this; the spec is plain data.
		panic(fmt.Sprintf("dse: marshal space spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
