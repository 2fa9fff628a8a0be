package hls

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kernels"
)

// FuzzDecodeAnalysis feeds outside bytes — an analysis blob from disk or
// the blob server — to DecodeAnalysis for one of the Table-1 kernels or
// figure1, chosen by the fuzzed index. Properties:
//
//   - no input panics;
//   - an accepted payload is a canonical fixed point: its Encode decodes
//     to the same Infos and re-encodes to the same bytes;
//   - an unmodified blob decodes to exactly Analyze's Infos.
//
// A mutated payload that decodes is not compared with a fresh analysis:
// in-envelope profiles are accepted by design (DESIGN.md §11 trust model,
// §13). Seeds are every kernel's blob and truncations of it.
func FuzzDecodeAnalysis(f *testing.F) {
	ks := append(kernels.All(), kernels.Figure1())
	fresh := make([]*Analysis, len(ks))
	for i, k := range ks {
		an, err := Analyze(k)
		if err != nil {
			f.Fatal(err)
		}
		fresh[i] = an
		blob := an.Encode()
		for _, n := range []int{0, 1, len(blob) / 3, len(blob) / 2, len(blob) - 1, len(blob)} {
			f.Add(uint8(i), blob[:n])
		}
	}
	f.Fuzz(func(t *testing.T, ki uint8, data []byte) {
		i := int(ki) % len(ks)
		k := ks[i]
		an, err := DecodeAnalysis(k, data)
		if err != nil {
			return
		}
		blob := an.Encode()
		back, err := DecodeAnalysis(k, blob)
		if err != nil {
			t.Fatalf("%s: accepted %q, but its encoding %q fails: %v", k.Name, data, blob, err)
		}
		if !reflect.DeepEqual(back.Infos, an.Infos) {
			t.Fatalf("%s: %q decodes to other Infos than its encoding %q", k.Name, data, blob)
		}
		if again := back.Encode(); !bytes.Equal(again, blob) {
			t.Fatalf("%s: encoding is not a fixed point: %q -> %q", k.Name, blob, again)
		}
		if bytes.Equal(data, fresh[i].Encode()) && !reflect.DeepEqual(an.Infos, fresh[i].Infos) {
			t.Fatalf("%s: an unmodified blob decodes to other Infos than Analyze", k.Name)
		}
	})
}
