package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 33, 17}, {130, 40, 65}} {
		a := randDense(rng, dims[0], dims[1])
		b := randDense(rng, dims[1], dims[2])
		got := Mul(a, b)
		want := MulNaive(a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("Mul mismatch for dims %v", dims)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 9, 9)
	if !Equal(Mul(a, Eye(9)), a, 1e-14) {
		t.Fatal("A*I != A")
	}
	if !Equal(Mul(Eye(9), a), a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(4, 2))
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 13, 7)
	b := randDense(rng, 21, 7)
	got := MulT(a, b)
	want := Mul(a, b.T())
	if !Equal(got, want, 1e-10) {
		t.Fatal("MulT != A*Bᵀ")
	}
}

func TestTMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 17, 6)
	b := randDense(rng, 17, 11)
	got := TMul(a, b)
	want := Mul(a.T(), b)
	if !Equal(got, want, 1e-10) {
		t.Fatal("TMul != Aᵀ*B")
	}
}

func TestMulVecAndTMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 8, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDenseData(5, 1, x)
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if diff := got[i] - want.At(i, 0); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
	y := make([]float64, 8)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	wantT := Mul(a.T(), NewDenseData(8, 1, y))
	gotT := TMulVec(a, y)
	for i := range gotT {
		if diff := gotT[i] - wantT.At(i, 0); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("TMulVec[%d] = %v, want %v", i, gotT[i], wantT.At(i, 0))
		}
	}
}

func TestMulTToReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := randDense(rng, 7, 4)
	b := randDense(rng, 9, 4)
	dst := NewDense(7, 9)
	dst.Fill(-5)
	MulTTo(dst, a, b)
	if !Equal(dst, Mul(a, b.T()), 1e-12) {
		t.Fatal("MulTTo != A*Bᵀ")
	}
}

func TestMulTToDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulTTo(NewDense(2, 2), NewDense(2, 3), NewDense(4, 3))
}

// TestMulTToShortDataPanics checks that an operand whose Data is shorter
// than Rows x Cols panics before the micro-kernel reads or writes past it.
func TestMulTToShortDataPanics(t *testing.T) {
	short := func(r, c int) *Dense { return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c-1)} }
	for _, c := range []struct {
		name      string
		dst, a, b *Dense
	}{
		{"a", NewDense(4, 8), short(4, 784), NewDense(8, 784)},
		{"b", NewDense(4, 8), NewDense(4, 784), short(8, 784)},
		{"dst", short(4, 8), NewDense(4, 784), NewDense(8, 784)},
		{"negative", &Dense{Rows: 1, Cols: 1, Data: []float64{0}}, &Dense{Rows: 1, Cols: -4}, &Dense{Rows: 1, Cols: -4}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: MulTTo accepted a short operand", c.name)
				}
			}()
			MulTTo(c.dst, c.a, c.b)
		}()
	}
}

func TestMulToReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 6, 4)
	b := randDense(rng, 4, 3)
	dst := NewDense(6, 3)
	dst.Fill(123) // must be fully overwritten
	MulTo(dst, a, b)
	if !Equal(dst, MulNaive(a, b), 1e-12) {
		t.Fatal("MulTo did not overwrite dst correctly")
	}
}

// Property: (A*B)*C == A*(B*C) (associativity up to roundoff).
func TestQuickMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2, n3, n4 := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randDense(r, n1, n2)
		b := randDense(r, n2, n3)
		c := randDense(r, n3, n4)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return Equal(left, right, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestQuickMulTransposeRule(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2, n3 := 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a := randDense(r, n1, n2)
		b := randDense(r, n2, n3)
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mul is linear in its first argument.
func TestQuickMulLinearity(t *testing.T) {
	f := func(seed int64, sRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		s := float64(int(sRaw*100)%7) / 3.0
		n1, n2, n3 := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a1 := randDense(r, n1, n2)
		a2 := randDense(r, n1, n2)
		b := randDense(r, n2, n3)
		left := Mul(Add(a1, Scale(s, a2)), b)
		right := Add(Mul(a1, b), Scale(s, Mul(a2, b)))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randDense(rng, 256, 256)
	y := randDense(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}
