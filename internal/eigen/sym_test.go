package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"eigenpro/internal/mat"
)

// tql2Cols is tql2 rotating columns of the accumulated transform z in
// place, as EISPACK writes it: the oracle for the row sweep Sym runs.
func tql2Cols(z *mat.Dense, d, e []float64) error {
	n := z.Rows
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
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
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

// symCols is Sym with the column QL sweep.
func symCols(a *mat.Dense) (*System, error) {
	n := a.Rows
	z := a.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			z.Set(j, i, z.At(i, j))
		}
	}
	d, e := make([]float64, n), make([]float64, n)
	tred2(z, d, e)
	if err := tql2Cols(z, d, e); err != nil {
		return nil, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return d[order[i]] > d[order[j]] })
	vals := make([]float64, n)
	for k, idx := range order {
		vals[k] = d[idx]
	}
	return &System{Values: vals, Vectors: z.SelectCols(order)}, nil
}

// TestSymBitsMatchColumnQL checks that Sym, whose QL sweep rotates rows of
// the transposed transform, gives the same bits as the column sweep.
func TestSymBitsMatchColumnQL(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{10, 170, 400} {
		a := randSym(rng, n)
		got, err := Sym(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := symCols(a)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Values {
			if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
				t.Fatalf("n=%d: value %d = %v, column QL %v", n, i, v, want.Values[i])
			}
		}
		for i, v := range got.Vectors.Data {
			if math.Float64bits(v) != math.Float64bits(want.Vectors.Data[i]) {
				t.Fatalf("n=%d: vector element %d = %v, column QL %v", n, i, v, want.Vectors.Data[i])
			}
		}
	}
}
