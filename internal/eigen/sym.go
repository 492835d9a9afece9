// Package eigen implements the symmetric eigensolvers required by the
// EigenPro 2.0 reproduction: a full dense solver (Householder
// tridiagonalization followed by implicit-shift QL) and block subspace
// iteration for extracting only the top-q eigenpairs of large positive
// semi-definite matrices such as subsampled kernel matrices. The tests
// cross-check both against a cyclic Jacobi solver and a Lanczos solver
// that live in the test files.
package eigen

import (
	"fmt"
	"math"
	"sort"

	"eigenpro/internal/mat"
)

// System holds an eigendecomposition with eigenvalues sorted in descending
// order. Vectors stores the corresponding eigenvectors as columns, so
// A * Vectors[:,i] ≈ Values[i] * Vectors[:,i].
type System struct {
	Values  []float64
	Vectors *mat.Dense
}

// TopQ returns a copy of the system truncated to its q leading (largest)
// eigenpairs. It panics if q exceeds the stored count.
func (s *System) TopQ(q int) *System {
	if q > len(s.Values) {
		panic(fmt.Sprintf("eigen: TopQ(%d) with only %d eigenpairs", q, len(s.Values)))
	}
	vals := make([]float64, q)
	copy(vals, s.Values[:q])
	idx := make([]int, q)
	for i := range idx {
		idx[i] = i
	}
	return &System{Values: vals, Vectors: s.Vectors.SelectCols(idx)}
}

// Sym computes the full eigendecomposition of a symmetric matrix using
// Householder tridiagonalization followed by the implicit-shift QL
// algorithm. The result is sorted by descending eigenvalue. Only the lower
// triangle of a is referenced. The input is not modified.
func Sym(a *mat.Dense) (*System, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("eigen: Sym of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		return &System{Values: nil, Vectors: mat.NewDense(0, 0)}, nil
	}
	// Work on a symmetric copy.
	z := a.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			z.Set(j, i, z.At(i, j))
		}
	}
	d := make([]float64, n) // diagonal of tridiagonal form
	e := make([]float64, n) // subdiagonal
	tred2(z, d, e)
	// The QL sweep rotates eigenvectors, which are contiguous rows of zᵀ.
	zt := z.T()
	if err := tql2(zt, d, e); err != nil {
		return nil, err
	}
	// Sort descending, permuting eigenvectors accordingly.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })
	vals := make([]float64, n)
	for k, idx := range order {
		vals[k] = d[idx]
		for i, v := range zt.RowView(idx) {
			z.Data[i*n+k] = v
		}
	}
	return &System{Values: vals, Vectors: z}, nil
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form using
// Householder reflections, accumulating the orthogonal transform in z.
// On return d holds the diagonal and e the subdiagonal (e[0] unused).
// Translated from the EISPACK/Numerical-Recipes algorithm.
func tred2(z *mat.Dense, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h := 0.0
		scale := 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0.0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0.0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-f*e[k]-g*z.At(i, k))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1.0)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0.0)
			z.Set(i, j, 0.0)
		}
	}
}

// tql2 computes eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix (diagonal d, subdiagonal e) by the QL algorithm with implicit
// shifts, updating the accumulated transform, stored transposed in zt: each
// plane rotation combines two contiguous rows of zt, the same arithmetic
// as on two columns of its transpose. It returns an error if an eigenvalue
// fails to converge in 50 iterations.
func tql2(zt *mat.Dense, d, e []float64) error {
	n := zt.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for m < n-1 {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64*dd || math.Abs(e[m])/(dd+math.SmallestNonzeroFloat64) < 1e-16 {
					break
				}
				m++
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return fmt.Errorf("eigen: tql2 failed to converge for eigenvalue %d", l)
			}
			g := (d[l+1] - d[l]) / (2.0 * e[l])
			r := math.Hypot(g, 1.0)
			sgn := r
			if g < 0 {
				sgn = -r
			}
			g = d[m] - d[l] + e[l]/(g+sgn)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0.0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2.0*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				zi, zi1 := zt.RowView(i), zt.RowView(i+1)
				for k, zk := range zi {
					f = zi1[k]
					zi1[k] = s*zk + c*f
					zi[k] = c*zk - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0.0
		}
	}
	return nil
}
