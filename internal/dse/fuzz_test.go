package dse

import (
	"encoding/json"
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
