package dse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// This file is the CLI space-builder: cmd/dse assembles its Space from
// comma-separated flag lists.

// SplitList splits a comma-separated CLI list, trimming whitespace and
// dropping empty fields.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// ParseInts parses a non-empty comma-separated integer list, rejecting
// values below min.
func ParseInts(s string, min int) ([]int, error) {
	var out []int
	for _, f := range SplitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil || v < min {
			return nil, fmt.Errorf("bad value %q (want integer ≥ %d)", f, min)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// SchedAxis builds the scheduler-variant axis as the cross-product of RAM
// access latencies and RAM port counts, with the CLI naming rule: the
// all-default singleton keeps the name "default", anything else is
// "m<latency>p<ports>".
func SchedAxis(memlats, ports []int) []SchedVariant {
	var out []SchedVariant
	for _, lat := range memlats {
		for _, p := range ports {
			cfg := sched.DefaultConfig()
			cfg.Lat.Mem = lat
			cfg.PortsPerRAM = p
			name := "default"
			if len(memlats) > 1 || len(ports) > 1 || lat != 1 || p != 1 {
				name = fmt.Sprintf("m%dp%d", lat, p)
			}
			out = append(out, SchedVariant{Name: name, Config: cfg})
		}
	}
	return out
}

// BuildSpace assembles a Space from the CLI's comma-separated axis lists.
// Empty kernel and allocator lists mean "all"; an empty device list leaves
// the axis to the normalization default (the paper's XCV1000).
func BuildSpace(kernelList, allocList, budgetList, deviceList, memlatList, portsList string) (Space, error) {
	var sp Space
	if kernelList == "" {
		sp.Kernels = kernels.All()
	} else {
		for _, name := range SplitList(kernelList) {
			k, err := kernels.ByName(name)
			if err != nil {
				return sp, err
			}
			sp.Kernels = append(sp.Kernels, k)
		}
	}
	if allocList == "" {
		sp.Allocators = core.All()
	} else {
		for _, name := range SplitList(allocList) {
			a, err := core.ByName(name)
			if err != nil {
				return sp, err
			}
			sp.Allocators = append(sp.Allocators, a)
		}
	}
	budgets, err := ParseInts(budgetList, 0)
	if err != nil {
		return sp, fmt.Errorf("bad -budgets: %w", err)
	}
	sp.Budgets = budgets
	for _, name := range SplitList(deviceList) {
		d, err := fpga.ByName(name)
		if err != nil {
			return sp, err
		}
		sp.Devices = append(sp.Devices, d)
	}
	memlats, err := ParseInts(memlatList, 1)
	if err != nil {
		return sp, fmt.Errorf("bad -memlat: %w", err)
	}
	ports, err := ParseInts(portsList, 1)
	if err != nil {
		return sp, fmt.Errorf("bad -ports: %w", err)
	}
	sp.Scheds = SchedAxis(memlats, ports)
	return sp, nil
}
