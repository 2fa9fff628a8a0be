// Package kernels provides the paper's benchmark suite — six image/signal
// processing loop kernels plus the Figure 1 running example — expressed in
// the textual kernel DSL and parameterized where the paper's text allows.
//
// Where the published table is not legible in our copy of the paper, the
// parameters follow the prose: a 1024-long 8-bit input vector, 32- and
// 64-tap filters (decimation factor 2), an 8-character pattern in a
// 1024-character string, square matrix and image sizes typical of the
// kernels' descriptions. DESIGN.md records every substitution.
package kernels

import (
	"fmt"
	"sync"

	"repro/internal/dsl"
	"repro/internal/ir"
)

// DefaultRmax is the register budget the experiments impose, recovered from
// the paper's worked example (the Figure 2(c) allocations sum to 64).
const DefaultRmax = 64

// Kernel is one benchmark workload.
type Kernel struct {
	Name        string
	Description string
	Nest        *ir.Nest
	// Rmax is the register budget for the Table 1 experiments.
	Rmax int
}

// Figure1 returns the paper's running example (Figures 1 and 2): a 3-deep
// nest with two multiply statements and the references a,b,c,d,e.
func Figure1() Kernel {
	return Kernel{
		Name:        "figure1",
		Description: "running example of Figures 1-2: d[i][k]=a[k]*b[k][j]; e[i][j][k]=c[j]*d[i][k]",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel figure1;
array a[30]:8;
array b[30][20]:8;
array c[20]:8;
array d[2][30]:8;
array e[2][20][30]:8;
for i = 0..2 {
  for j = 0..20 {
    for k = 0..30 {
      d[i][k] = a[k] * b[k][j];
      e[i][j][k] = c[j] * d[i][k];
    }
  }
}
`),
	}
}

// FIR returns the Finite-Impulse-Response filter: a 1024-sample 8-bit
// vector convolved with 32 coefficients.
func FIR() Kernel {
	return Kernel{
		Name:        "fir",
		Description: "1024-sample FIR filter, 32 taps, 8-bit data, 24-bit accumulator",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel fir;
array x[1024]:8;
array c[32]:8;
array y[992]:24;
for i = 0..992 {
  for k = 0..32 {
    y[i] = y[i] + c[k] * x[i + k];
  }
}
`),
	}
}

// DecFIR returns the decimating FIR filter: 64 taps, decimation factor 2.
func DecFIR() Kernel {
	return Kernel{
		Name:        "decfir",
		Description: "decimating FIR filter, 64 taps, decimation factor 2, 1024 samples",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel decfir;
array x[1024]:8;
array c[64]:8;
array y[480]:24;
for i = 0..480 {
  for k = 0..64 {
    y[i] = y[i] + c[k] * x[2*i + k];
  }
}
`),
	}
}

// MAT returns the 32×32 matrix-matrix multiplication.
func MAT() Kernel {
	return Kernel{
		Name:        "mat",
		Description: "32x32 matrix-matrix multiply, 8-bit data, 24-bit accumulator",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel mat;
array a[32][32]:8;
array b[32][32]:8;
array c[32][32]:24;
for i = 0..32 {
  for j = 0..32 {
    for k = 0..32 {
      c[i][j] = c[i][j] + a[i][k] * b[k][j];
    }
  }
}
`),
	}
}

// IMI returns the image interpolation kernel: 16 intermediate frames
// between two 64×64 grey-scale images.
func IMI() Kernel {
	return Kernel{
		Name:        "imi",
		Description: "interpolation of two 64x64 grey images over 16 intermediate frames",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel imi;
array a[64][64]:8;
array b[64][64]:8;
array o[16][64][64]:8;
for t = 0..16 {
  for i = 0..64 {
    for j = 0..64 {
      o[t][i][j] = a[i][j] + ((t * (b[i][j] - a[i][j])) >> 4);
    }
  }
}
`),
	}
}

// PAT returns the string pattern matcher: a 64-character pattern slid over
// a 1024-character string, counting per-position character matches. (The
// pattern length is illegible in our copy of the paper; 64 is chosen so the
// kernel pressures the 64-register budget like the other five.)
func PAT() Kernel {
	return Kernel{
		Name:        "pat",
		Description: "64-character pattern matched against a 1024-character string",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel pat;
array s[1024]:8;
array p[64]:8;
array m[961]:8;
for i = 0..961 {
  for k = 0..64 {
    m[i] = m[i] + (s[i + k] == p[k]);
  }
}
`),
	}
}

// BIC returns the binary image correlation: an 8×8 binary template slid
// over successively overlapping regions of a 64×64 binary image.
func BIC() Kernel {
	return Kernel{
		Name:        "bic",
		Description: "binary image correlation: 8x8 template over a 64x64 image",
		Rmax:        DefaultRmax,
		Nest: dsl.MustParse(`
kernel bic;
array img[64][64]:1;
array tpl[8][8]:1;
array r[57][57]:8;
for i = 0..57 {
  for j = 0..57 {
    for m = 0..8 {
      for n = 0..8 {
        r[i][j] = r[i][j] + (img[i + m][j + n] ^ tpl[m][n]);
      }
    }
  }
}
`),
	}
}

// All returns the six Table-1 kernels in the paper's row order.
func All() []Kernel {
	return []Kernel{FIR(), DecFIR(), IMI(), MAT(), PAT(), BIC()}
}

// constructors maps every kernel name ByName resolves to its constructor.
var constructors = map[string]func() Kernel{
	"figure1": Figure1,
	"fir":     FIR,
	"decfir":  DecFIR,
	"imi":     IMI,
	"mat":     MAT,
	"pat":     PAT,
	"bic":     BIC,
}

// ByName resolves a kernel (including "figure1") by name. It parses only
// the named kernel's source, and every call returns a fresh Kernel: a
// nest's fields are writable, so no two callers share one.
func ByName(name string) (Kernel, error) {
	if mk, ok := constructors[name]; ok {
		return mk(), nil
	}
	return Kernel{}, fmt.Errorf("kernels: unknown kernel %q (have figure1, fir, decfir, imi, mat, pat, bic)", name)
}

// sharedKernel is the one instance Shared hands out for a name, parsed on
// first use.
type sharedKernel struct {
	mk   func() Kernel
	once sync.Once
	k    Kernel
}

// shared holds a sharedKernel per registered name; the map itself is
// never written after initialization.
var shared = func() map[string]*sharedKernel {
	m := make(map[string]*sharedKernel, len(constructors))
	for name, mk := range constructors {
		m[name] = &sharedKernel{mk: mk}
	}
	return m
}()

// Shared resolves a kernel by name like ByName, but parses each name once
// per process, on first use, and returns that one instance to every
// caller: its nest is shared and must not be modified (a caller that
// needs to modify one takes ByName's fresh copy). Safe for concurrent
// use; the registry's seven names bound what it keeps.
func Shared(name string) (Kernel, error) {
	s, ok := shared[name]
	if !ok {
		return ByName(name)
	}
	s.once.Do(func() { s.k = s.mk() })
	return s.k, nil
}
