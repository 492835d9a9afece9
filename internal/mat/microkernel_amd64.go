package mat

// useAVX2FMA reports whether the CPU and OS support the AVX2/FMA
// micro-kernel: CPUID must report AVX, AVX2, FMA and OSXSAVE, and XGETBV
// must show the OS saving the XMM and YMM register state.
var useAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with the given EAX and ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0 (XGETBV with ECX = 0).
func xgetbv() (eax, edx uint32)

// tile2x4 writes the 2x4 tile c[r*ldc+j] = dotFMA(a_r, b_j) for rows a_r at
// a+r*lda and b_j at b+j*ldb (strides in elements), each k long.
//
//go:noescape
func tile2x4(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k int)

// tile1x4 writes c[j] = dotFMA(a, b_j) for the four rows b_j at b+j*ldb.
//
//go:noescape
func tile1x4(a *float64, b *float64, ldb int, c *float64, k int)

// dot1 returns dotFMA over k elements of a and b.
//
//go:noescape
func dot1(a, b *float64, k int) float64

// mulTTBlock computes dst[i,j] = dotFMA(a_i, b_j) for i in [i0,i1) and j in
// [j0,j1), in 2x4 register tiles where the CPU has AVX2 and FMA. Each group
// of four b rows stays in L1 while every row pair of the block streams past
// it.
func mulTTBlock(dst, a, b *Dense, i0, i1, j0, j1 int) {
	k, ldc := a.Cols, dst.Cols
	if !useAVX2FMA || k == 0 {
		mulTTBlockGo(dst, a, b, i0, i1, j0, j1)
		return
	}
	j4 := j0 + (j1-j0)&^3
	for j := j0; j < j4; j += 4 {
		bq := &b.Data[j*k]
		i := i0
		for ; i+2 <= i1; i += 2 {
			tile2x4(&a.Data[i*k], k, bq, k, &dst.Data[i*ldc+j], ldc, k)
		}
		if i < i1 {
			tile1x4(&a.Data[i*k], bq, k, &dst.Data[i*ldc+j], k)
		}
	}
	for j := j4; j < j1; j++ {
		for i := i0; i < i1; i++ {
			dst.Data[i*ldc+j] = dot1(&a.Data[i*k], &b.Data[j*k], k)
		}
	}
}
