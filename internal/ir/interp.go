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
	mask map[string]int64 // value mask derived from element width
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{data: map[string][]int64{}, mask: map[string]int64{}}
}

// Bind allocates (zeroed) backing storage for an array. Binding the same
// array twice resets its contents.
func (s *Store) Bind(a *Array) {
	s.data[a.Name] = make([]int64, a.Size())
	s.mask[a.Name] = widthMask(a.ElemBits)
}

func widthMask(bits int) int64 {
	if bits >= 64 {
		return -1
	}
	return (int64(1) << uint(bits)) - 1
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
	d, ok := s.data[a.Name]
	if !ok {
		return 0, fmt.Errorf("store: array %q not bound", a.Name)
	}
	return d[flat], nil
}

// StoreElem writes one element, truncating the value to the element width.
func (s *Store) StoreElem(a *Array, idx []int, v int64) error {
	flat, err := a.FlatIndex(idx)
	if err != nil {
		return err
	}
	d, ok := s.data[a.Name]
	if !ok {
		return fmt.Errorf("store: array %q not bound", a.Name)
	}
	d[flat] = v & s.mask[a.Name]
	return nil
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	out := NewStore()
	for name, d := range s.data {
		out.data[name] = append([]int64(nil), d...)
		out.mask[name] = s.mask[name]
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
		m := s.mask[a.Name]
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
	for _, a := range n.Arrays() {
		if !s.Bound(a.Name) {
			s.Bind(a)
		}
	}
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
				idx, err := evalIndex(st.LHS, env)
				if err != nil {
					return err
				}
				if err := s.StoreElem(st.LHS.Array, idx, v); err != nil {
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

func evalIndex(r *ArrayRef, env map[string]int) ([]int, error) {
	idx := make([]int, len(r.index))
	for d, ix := range r.index {
		idx[d] = ix.Eval(env)
	}
	return idx, nil
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
		idx, err := evalIndex(e, env)
		if err != nil {
			return 0, 0, err
		}
		v, err := s.Load(e.Array, idx)
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
