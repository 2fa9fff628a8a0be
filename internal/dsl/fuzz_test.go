package dsl_test

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/kernels"
)

// FuzzParse feeds the parser arbitrary bytes. It must never panic, and a
// program it accepts must format to source that parses again, with
// formatting a fixed point after that one round trip. Every reference of
// an accepted nest must carry the key its rendering spells: keys are
// computed once, when the parser builds the reference.
func FuzzParse(f *testing.F) {
	for _, k := range append([]kernels.Kernel{kernels.Figure1()}, kernels.All()...) {
		src := dsl.Format(k.Nest)
		f.Add(src)
		for _, frac := range []int{4, 2} {
			f.Add(src[:len(src)/frac])
		}
		f.Add(src[:len(src)-2])
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := dsl.Parse(src)
		if err != nil {
			return
		}
		for _, u := range n.RefUses() {
			if k, s := u.Ref.Key(), u.Ref.String(); k != s {
				t.Fatalf("reference key %q, rendering %q", k, s)
			}
		}
		text := dsl.Format(n)
		again, err := dsl.Parse(text)
		if err != nil {
			t.Fatalf("formatted program rejected: %v\n%s", err, text)
		}
		if text2 := dsl.Format(again); text2 != text {
			t.Fatalf("formatting is not a fixed point:\n%s\nvs\n%s", text, text2)
		}
	})
}
