package hot

import "fmt"

//repro:hotpath
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//repro:hotpath
func concatAssign(a, b string) string {
	a += b // want `string concatenation allocates`
	return a
}

//repro:hotpath
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal allocates`
}

//repro:hotpath
func mapLit() map[int]int {
	return map[int]int{} // want `map literal allocates`
}

//repro:hotpath
func mapMake() map[int]int {
	return make(map[int]int) // want `make\(map\[int\]int\) allocates`
}

//repro:hotpath
func newT() *int {
	return new(int) // want `new allocates`
}

//repro:hotpath
func format(n int) {
	fmt.Println(n) // want `calls fmt\.Println`
}

//repro:hotpath
func closure(n int) func() int {
	f := func() int { return n } // want `closure captures n`
	return f
}

//repro:hotpath
func freeClosure() func() int {
	f := func() int { return 1 } // captures nothing: static, no alloc
	return f
}

//repro:hotpath
func boxConv(v int) interface{} {
	return interface{}(v) // want `conversion boxes int into interface\{\}`
}

func sink(v interface{}) { _ = v }

//repro:hotpath
func boxArg(n int) {
	sink(n) // want `argument boxes int into interface\{\}`
}

//repro:hotpath
func boxAssign(n int) {
	var v interface{}
	v = n // want `assignment boxes int into interface\{\}`
	_ = v
}

//repro:hotpath
func bytesToString(b []byte) string {
	return string(b) // want `slice→string conversion allocates`
}

//repro:hotpath
func stringToBytes(s string) []byte {
	return []byte(s) // want `string→slice conversion allocates`
}

var table = map[string]int{}

// probe: string(b) directly indexing a map read (plain or comma-ok) is the
// compiler's zero-copy idiom and passes.
//
//repro:hotpath
func probe(b []byte) int {
	v, ok := table[string(b)]
	if !ok {
		return -1
	}
	return v + table[string(b)]
}

// store: writing through the same index materializes the key.
//
//repro:hotpath
func store(b []byte) {
	table[string(b)] = 1  // want `slice→string conversion allocates`
	table[string(b)] += 2 // want `slice→string conversion allocates`
	table[string(b)]++    // want `slice→string conversion allocates`
}

//repro:hotpath
func coldPanic(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) //repro:allowalloc cold can't-happen branch
	}
	return n
}

//repro:hotpath
func badEscape(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) //repro:allowalloc // want `//repro:allowalloc escape needs a reason`
	}
	return n
}

type point struct{ x, y int }

// clean exercises the allowed constructs: array literals, struct
// values, append into a caller-owned buffer, arithmetic.
//
//repro:hotpath
func clean(dst []int, p point) []int {
	var arr [4]int
	arr[0] = p.x
	q := point{x: p.y, y: p.x}
	dst = append(dst, arr[0], q.x)
	return dst
}

// unannotated allocates freely.
func unannotated() []int {
	return []int{1, 2, 3}
}
