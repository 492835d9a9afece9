//go:build !amd64

package mat

// mulTTBlock computes dst[i,j] = dotFMA(a_i, b_j) for i in [i0,i1) and j in
// [j0,j1); without the amd64 assembly it is the pure-Go micro-kernel.
func mulTTBlock(dst, a, b *Dense, i0, i1, j0, j1 int) {
	mulTTBlockGo(dst, a, b, i0, i1, j0, j1)
}

// useAVX2FMA is false where there is no assembly micro-kernel.
const useAVX2FMA = false

// dot returns dotFMA(a, b); there is no assembly dot off amd64.
func dot(a, b []float64) float64 { return dotFMA(a, b) }

// subScaled is subScaledGo; there is no assembly update off amd64.
func subScaled(s float64, x, y []float64) { subScaledGo(s, x, y) }
