// Command misscurve prints, as CSV, the LRU miss curve of every reference
// of a kernel — the registers-vs-memory-traffic trade-off behind the
// paper's knapsack formulation — alongside the analytic full-reuse size ν.
//
// Usage:
//
//	misscurve -kernel fir -sizes 1,2,4,8,16,32,64
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/trace"
)

func main() {
	var (
		kernel = flag.String("kernel", "fir", "kernel name")
		sizes  = flag.String("sizes", "1,2,4,8,16,32,64", "comma-separated LRU file sizes")
	)
	flag.Parse()
	if err := run(os.Stdout, *kernel, *sizes); err != nil {
		fmt.Fprintln(os.Stderr, "misscurve:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, kernel, sizes string) error {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return err
	}
	var ss []int
	for _, s := range strings.Split(sizes, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			return fmt.Errorf("bad size %q", s)
		}
		ss = append(ss, v)
	}
	// The shared hls front-end (reuse analysis + DFG, one pass) is the
	// same analysis every other driver starts from.
	an, err := hls.Analyze(k)
	if err != nil {
		return err
	}
	infos := an.Infos
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"kernel", "reference", "nu", "size", "misses", "accesses"}); err != nil {
		return err
	}
	for _, inf := range infos {
		curve, err := trace.MissCurve(k.Nest, inf.Key(), ss)
		if err != nil {
			return err
		}
		total := inf.TotalReads + inf.TotalWrites
		for i, size := range ss {
			rec := []string{
				k.Name, inf.Key(), strconv.Itoa(inf.Nu),
				strconv.Itoa(size), strconv.Itoa(curve[i]), strconv.Itoa(total),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}
