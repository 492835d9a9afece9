package mat

import "math"

// dotFMA returns Σ_p a[p]·b[p] in the one summation order every a·bᵀ
// output uses: four lane sums over p ≡ lane (mod 4), each accumulated by
// fused multiply-add, reduced as (s0+s2)+(s1+s3), then the len mod 4 tail
// added by fused multiply-add. It is the pure-Go micro-kernel and the
// oracle for the assembly one, which computes the same bits for each
// output whatever tile it falls in. b must be at least as long as a.
func dotFMA(a, b []float64) float64 {
	k4 := len(a) &^ 3
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for p := 0; p < k4; p += 4 {
		s0 = math.FMA(a[p], b[p], s0)
		s1 = math.FMA(a[p+1], b[p+1], s1)
		s2 = math.FMA(a[p+2], b[p+2], s2)
		s3 = math.FMA(a[p+3], b[p+3], s3)
	}
	s := (s0 + s2) + (s1 + s3)
	for p := k4; p < len(a); p++ {
		s = math.FMA(a[p], b[p], s)
	}
	return s
}

// mulTTBlockGo computes dst[i,j] = dotFMA(a_i, b_j) for i in [i0,i1) and
// j in [j0,j1).
func mulTTBlockGo(dst, a, b *Dense, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		arow := a.RowView(i)
		drow := dst.RowView(i)
		for j := j0; j < j1; j++ {
			drow[j] = dotFMA(arow, b.RowView(j))
		}
	}
}
