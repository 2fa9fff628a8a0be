package dse

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// FuzzSpaceSpec feeds outside bytes to the decode every spec boundary
// shares — serve's POST body, shard and task headers, fleet executors,
// -space files: json.Unmarshal into a SpaceSpec, then Space(). Properties:
//
//   - no input panics;
//   - an accepted spec resolves to at most maxPoints design points;
//   - the spec of the resolved space is a fixed point: resolving it again
//     gives the same fingerprint. It need not equal the input's, since
//     device names resolve case-insensitively and by prefix (XCV1000).
func FuzzSpaceSpec(f *testing.F) {
	pf := DefaultSpace()
	pf.Portfolio = true
	wide := DefaultSpace()
	wide.Scheds = SchedAxis([]int{1, 2, 4}, []int{1, 2})
	for _, sp := range []Space{DefaultSpace(), pf, wide} {
		data, err := json.Marshal(Spec(sp))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"kernels":["fir"],"allocators":["CPA-RA"],"budgets":[0],"devices":["xcv1000"],"scheds":[{"name":"d","mem":1,"default_op":1,"op":{"2":3},"ports":1}]}`,
		`{"kernels":["fir","fir"],"allocators":["FR-RA"],"budgets":[-1],"devices":["XC2V6000"],"scheds":[{}],"portfolio":true}`,
		`{}`, `null`, `[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SpaceSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		sp, err := spec.Space()
		if err != nil {
			return
		}
		if n := sp.Size(); n > maxPoints {
			t.Fatalf("accepted a spec of %d design points, the cap is %d", n, maxPoints)
		}
		canon := Spec(sp)
		again, err := canon.Space()
		if err != nil {
			t.Fatalf("the spec of a resolved space does not resolve: %v", err)
		}
		if got, want := Spec(again).Fingerprint(), canon.Fingerprint(); got != want {
			t.Fatalf("resolving a resolved space's spec changed its fingerprint: %s -> %s", want, got)
		}
	})
}

// FuzzTenths holds the CSV reporter's float rendering to fmt's "%.1f",
// byte for byte. Seeds: shortest-digit ties, carries through every digit,
// negative zero, the non-finite values, neighbours of 2^49 (the first
// binade whose spacing exceeds a tenth) and of the 1e15 fallback bound,
// and every clock, time and utilization figure of the stock sweep.
func FuzzTenths(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.05, 0.25, 0.35, -0.25, 0.04, -0.04, 0.96, -0.96,
		9.95, 99.96, 999.99, 1.45, 2.675, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(v)
	}
	for _, c := range []float64{1 << 49, 1e15} {
		f.Add(math.Nextafter(c, 0))
		f.Add(c)
		f.Add(math.Nextafter(c, math.Inf(1)))
		f.Add(c + 0.25)
		f.Add(c - 0.25)
	}
	rs, err := Engine{}.Explore(DefaultSpace())
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range rs.Ok() {
		f.Add(r.Design.ClockNs)
		f.Add(r.Design.TimeUs)
		f.Add(r.Design.SliceUtil)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if got, want := formatTenths(v), fmt.Sprintf("%.1f", v); got != want {
			t.Fatalf("formatTenths(%v) = %q, fmt gives %q", v, got, want)
		}
	})
}
