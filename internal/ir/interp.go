package ir

import (
	"fmt"
	"math/rand"
	"sort"
)

// Store holds the memory image of every array, flattened row-major. It is
// the reference semantics against which every hardware-mapping decision is
// checked: scalar replacement must never change the values a nest computes.
type Store struct {
	data map[string][]int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{data: map[string][]int64{}}
}

// Bind allocates (zeroed) backing storage for an array. Binding the same
// array twice resets its contents.
func (s *Store) Bind(a *Array) { s.data[a.Name] = make([]int64, a.Size()) }

// BindNest binds zeroed storage for every array of the nest that has none
// yet; arrays already bound keep their contents.
func (s *Store) BindNest(n *Nest) {
	for _, a := range n.Arrays() {
		if !s.Bound(a.Name) {
			s.Bind(a)
		}
	}
}

// Bound reports whether the array has backing storage.
func (s *Store) Bound(name string) bool { _, ok := s.data[name]; return ok }

// Raw returns the flattened contents of an array (the live slice, not a copy).
func (s *Store) Raw(name string) []int64 { return s.data[name] }

// Load reads one element.
func (s *Store) Load(a *Array, idx []int) (int64, error) {
	flat, err := a.FlatIndex(idx)
	if err != nil {
		return 0, err
	}
	return s.LoadFlat(a, flat)
}

// StoreElem writes one element, truncating the value to the element width.
func (s *Store) StoreElem(a *Array, idx []int, v int64) error {
	flat, err := a.FlatIndex(idx)
	if err != nil {
		return err
	}
	return s.StoreFlat(a, flat, v)
}

// LoadFlat reads the element at a row-major flat offset.
func (s *Store) LoadFlat(a *Array, flat int) (int64, error) {
	d, err := s.elems(a, flat)
	if err != nil {
		return 0, err
	}
	return d[flat], nil
}

// StoreFlat writes the element at a row-major flat offset, truncating the
// value to the element width.
func (s *Store) StoreFlat(a *Array, flat int, v int64) error {
	d, err := s.elems(a, flat)
	if err != nil {
		return err
	}
	d[flat] = v & a.Mask()
	return nil
}

// elems returns the array's storage once flat is known to lie inside it.
func (s *Store) elems(a *Array, flat int) ([]int64, error) {
	d, ok := s.data[a.Name]
	if !ok {
		return nil, fmt.Errorf("store: array %q not bound", a.Name)
	}
	if flat < 0 || flat >= len(d) {
		return nil, fmt.Errorf("array %s: flat index %d out of bounds [0,%d)", a.Name, flat, len(d))
	}
	return d, nil
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	out := NewStore()
	for name, d := range s.data {
		out.data[name] = append([]int64(nil), d...)
	}
	return out
}

// Equal reports whether two stores hold identical contents, returning a
// human-readable description of the first difference otherwise.
func (s *Store) Equal(o *Store) (bool, string) {
	var names []string
	for n := range s.data {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := s.data[n], o.data[n]
		if len(a) != len(b) {
			return false, fmt.Sprintf("array %q: size %d vs %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return false, fmt.Sprintf("array %q: element %d is %d vs %d", n, i, a[i], b[i])
			}
		}
	}
	for n := range o.data {
		if _, ok := s.data[n]; !ok {
			return false, fmt.Sprintf("array %q only present on one side", n)
		}
	}
	return true, ""
}

// RandomizeInputs fills every array of the nest that is read before being
// written (a pure input) with deterministic pseudo-random data, and binds
// zeroed storage for the rest. The seed makes test runs reproducible.
func (s *Store) RandomizeInputs(n *Nest, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	written := map[string]bool{}
	for _, st := range n.Body {
		written[st.LHS.Array.Name] = true
	}
	for _, a := range n.Arrays() {
		s.Bind(a)
		if written[a.Name] {
			continue
		}
		d := s.data[a.Name]
		m := a.Mask()
		for i := range d {
			d[i] = rng.Int63() & m
		}
	}
}

// Interp executes the nest sequentially against the store, producing the
// reference ("golden") result. It returns the number of dynamic array
// accesses performed (reads + writes), which reuse analysis uses as an
// oracle.
func Interp(n *Nest, s *Store) (accesses int, err error) {
	s.BindNest(n)
	env := map[string]int{}
	var run func(depth int) error
	run = func(depth int) error {
		if depth == len(n.Loops) {
			for _, st := range n.Body {
				v, nr, err := evalExpr(st.RHS, env, s)
				if err != nil {
					return err
				}
				accesses += nr
				if err := s.StoreElem(st.LHS.Array, st.LHS.IndexAt(env), v); err != nil {
					return err
				}
				accesses++
			}
			return nil
		}
		l := n.Loops[depth]
		for v := l.Lo; v < l.Hi; v += l.Step {
			env[l.Var] = v
			if err := run(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err = run(0)
	return accesses, err
}

// evalExpr evaluates e, returning the value and the number of array reads
// performed.
func evalExpr(e Expr, env map[string]int, s *Store) (int64, int, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, 0, nil
	case *VarRef:
		return int64(env[e.Name]), 0, nil
	case *ArrayRef:
		v, err := s.Load(e.Array, e.IndexAt(env))
		return v, 1, err
	case *BinOp:
		l, nl, err := evalExpr(e.L, env, s)
		if err != nil {
			return 0, 0, err
		}
		r, nr, err := evalExpr(e.R, env, s)
		if err != nil {
			return 0, 0, err
		}
		v, err := EvalOp(e.Op, l, r)
		return v, nl + nr, err
	default:
		return 0, 0, fmt.Errorf("interp: unknown expression %T", e)
	}
}

// EvalOp applies one operator to two values. Division by zero is an error
// rather than a panic so hardware simulations can surface it cleanly.
func EvalOp(op OpKind, l, r int64) (int64, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("interp: division by zero")
		}
		return l / r, nil
	case OpAnd:
		return l & r, nil
	case OpOr:
		return l | r, nil
	case OpXor:
		return l ^ r, nil
	case OpShl:
		return l << uint(r&63), nil
	case OpShr:
		return l >> uint(r&63), nil
	case OpEq:
		return b2i(l == r), nil
	case OpNe:
		return b2i(l != r), nil
	case OpLt:
		return b2i(l < r), nil
	case OpLe:
		return b2i(l <= r), nil
	case OpMin:
		if l < r {
			return l, nil
		}
		return r, nil
	case OpMax:
		if l > r {
			return l, nil
		}
		return r, nil
	default:
		return 0, fmt.Errorf("interp: invalid operator %v", op)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
