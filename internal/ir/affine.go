package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Affine is an affine function of loop variables: sum(Coeffs[v]*v) + Const.
// It is the only index-expression form the reuse analysis accepts, matching
// the paper's program class ("affine functions of the enclosing loop index
// variables").
//
// The zero value is the constant function 0 and is ready to use.
type Affine struct {
	Coeffs map[string]int
	Const  int
}

// AffConst returns the constant affine function c.
func AffConst(c int) Affine { return Affine{Const: c} }

// AffVar returns the affine function 1*v + 0.
func AffVar(v string) Affine { return Affine{Coeffs: map[string]int{v: 1}} }

// AffTerm returns the affine function coeff*v + c.
func AffTerm(coeff int, v string, c int) Affine {
	if coeff == 0 {
		return AffConst(c)
	}
	return Affine{Coeffs: map[string]int{v: coeff}, Const: c}
}

// Clone returns a deep copy of the affine function.
func (a Affine) Clone() Affine {
	out := Affine{Const: a.Const}
	if len(a.Coeffs) > 0 {
		out.Coeffs = make(map[string]int, len(a.Coeffs))
		for v, c := range a.Coeffs {
			out.Coeffs[v] = c
		}
	}
	return out
}

// Coeff returns the coefficient of variable v (0 when absent).
func (a Affine) Coeff(v string) int { return a.Coeffs[v] }

// Vars returns the variables with non-zero coefficients, sorted by name.
func (a Affine) Vars() []string {
	var vs []string
	for v, c := range a.Coeffs {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	return vs
}

// IsConst reports whether the function has no variable terms.
func (a Affine) IsConst() bool { return len(a.Vars()) == 0 }

// Add returns a+b.
func (a Affine) Add(b Affine) Affine {
	out := a.Clone()
	out.Const += b.Const
	for v, c := range b.Coeffs {
		if c == 0 {
			continue
		}
		if out.Coeffs == nil {
			out.Coeffs = map[string]int{}
		}
		out.Coeffs[v] += c
		if out.Coeffs[v] == 0 {
			delete(out.Coeffs, v)
		}
	}
	return out
}

// Sub returns a-b.
func (a Affine) Sub(b Affine) Affine { return a.Add(b.Scale(-1)) }

// Scale returns k*a.
func (a Affine) Scale(k int) Affine {
	if k == 0 {
		return AffConst(0)
	}
	out := Affine{Const: a.Const * k}
	if len(a.Coeffs) > 0 {
		out.Coeffs = make(map[string]int, len(a.Coeffs))
		for v, c := range a.Coeffs {
			if c != 0 {
				out.Coeffs[v] = c * k
			}
		}
	}
	return out
}

// Eval evaluates the function under an environment of variable values.
// Variables missing from env evaluate as 0.
func (a Affine) Eval(env map[string]int) int {
	r := a.Const
	for v, c := range a.Coeffs {
		r += c * env[v]
	}
	return r
}

// Equal reports whether a and b denote the same affine function.
func (a Affine) Equal(b Affine) bool {
	d := a.Sub(b)
	return d.Const == 0 && len(d.Vars()) == 0
}

// RangeOver returns the minimum and maximum values the function takes over
// the iteration box of the given loops. Because the function is affine, the
// extremes occur at box corners; each variable contributes independently.
func (a Affine) RangeOver(loops []Loop) (lo, hi int) {
	lo, hi = a.Const, a.Const
	for _, l := range loops {
		c := a.Coeffs[l.Var]
		if c == 0 {
			continue
		}
		if l.Trip() == 0 {
			continue
		}
		last := l.Lo + (l.Trip()-1)*l.Step
		v1, v2 := c*l.Lo, c*last
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		lo += v1
		hi += v2
	}
	return lo, hi
}

// String renders the function like "2*i + k + 3".
func (a Affine) String() string {
	var parts []string
	for _, v := range a.Vars() {
		c := a.Coeffs[v]
		switch c {
		case 1:
			parts = append(parts, v)
		case -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	s := strings.Join(parts, " + ")
	return strings.ReplaceAll(s, "+ -", "- ")
}
