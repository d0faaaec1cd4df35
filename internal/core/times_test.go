package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCyclesSaturation(t *testing.T) {
	cases := []struct {
		a, b, want Cycles
		op         string
	}{
		{10, 5, 15, "add"},
		{Inf, 5, Inf, "add"},
		{5, Inf, Inf, "add"},
		{Inf, Inf, Inf, "add"},
		{Inf - 1, 10, Inf, "add"}, // overflow saturates
		{10, 4, 6, "sub"},
		{Inf, 4, Inf, "sub"},
		{4, 10, -6, "sub"},
	}
	for _, tc := range cases {
		var got Cycles
		switch tc.op {
		case "add":
			got = tc.a.AddSat(tc.b)
		case "sub":
			got = tc.a.SubSat(tc.b)
		}
		if got != tc.want {
			t.Errorf("%v %s %v = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestCyclesString(t *testing.T) {
	if Inf.String() != "+inf" {
		t.Errorf("Inf.String() = %q", Inf.String())
	}
	if Cycles(42).String() != "42" {
		t.Errorf("Cycles(42).String() = %q", Cycles(42).String())
	}
}

func TestMinCycles(t *testing.T) {
	if MinCycles(3, 7) != 3 || MinCycles(7, 3) != 3 || MinCycles(Inf, 3) != 3 {
		t.Fatal("MinCycles wrong")
	}
}

func TestLevelSet(t *testing.T) {
	s := NewLevelRange(0, 7)
	if len(s) != 8 || s.Min() != 0 || s.Max() != 7 {
		t.Fatalf("NewLevelRange(0,7) = %v", s)
	}
	if !s.Valid() {
		t.Fatal("range set should be valid")
	}
	if s.Index(5) != 5 || s.Index(9) != -1 {
		t.Fatal("Index wrong")
	}
	if !s.Contains(0) || s.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if NewLevelRange(3, 1) != nil {
		t.Fatal("inverted range should be nil")
	}
	if (LevelSet{}).Valid() {
		t.Fatal("empty set should be invalid")
	}
	if (LevelSet{2, 2}).Valid() {
		t.Fatal("non-strict set should be invalid")
	}
}

func TestTimeFnSum(t *testing.T) {
	f := TimeFn{10, 20, Inf}
	if got := f.Sum([]ActionID{0, 1}); got != 30 {
		t.Errorf("Sum = %v, want 30", got)
	}
	if got := f.Sum([]ActionID{0, 2}); !got.IsInf() {
		t.Errorf("Sum with Inf = %v, want Inf", got)
	}
	if got := f.Sum(nil); got != 0 {
		t.Errorf("empty Sum = %v, want 0", got)
	}
}

func TestTimeFamilyAccessors(t *testing.T) {
	levels := NewLevelRange(0, 2)
	fam := NewTimeFamily(levels, 3, 5)
	if fam.At(1, 2) != 5 {
		t.Fatal("initial value wrong")
	}
	fam.Set(2, 1, 99)
	if fam.At(2, 1) != 99 {
		t.Fatal("Set/At roundtrip failed")
	}
	fam.SetAll(0, 7)
	for _, q := range levels {
		if fam.At(q, 0) != 7 {
			t.Fatal("SetAll failed")
		}
	}
}

func TestTimeFamilyPanicsOnUnknownLevel(t *testing.T) {
	fam := NewTimeFamily(NewLevelRange(0, 1), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("At with unknown level did not panic")
		}
	}()
	fam.At(9, 0)
}

func TestNonDecreasing(t *testing.T) {
	levels := NewLevelRange(0, 2)
	fam := NewTimeFamily(levels, 2, 0)
	fam.Set(0, 0, 10)
	fam.Set(1, 0, 20)
	fam.Set(2, 0, 20)
	fam.Set(0, 1, 5)
	fam.Set(1, 1, 5)
	fam.Set(2, 1, Inf)
	if !fam.NonDecreasing() {
		t.Fatal("non-decreasing family rejected")
	}
	fam.Set(2, 0, 15) // decrease at top level
	if fam.NonDecreasing() {
		t.Fatal("decreasing family accepted")
	}
	// Inf followed by finite is a decrease.
	fam2 := NewTimeFamily(levels, 1, 0)
	fam2.Set(0, 0, Inf)
	fam2.Set(1, 0, 5)
	fam2.Set(2, 0, 5)
	if fam2.NonDecreasing() {
		t.Fatal("Inf->finite accepted as non-decreasing")
	}
}

func TestForAssignment(t *testing.T) {
	levels := NewLevelRange(0, 1)
	fam := NewTimeFamily(levels, 2, 0)
	fam.Set(0, 0, 1)
	fam.Set(1, 0, 2)
	fam.Set(0, 1, 3)
	fam.Set(1, 1, 4)
	th := Assignment{0, 1}
	got := fam.ForAssignment(th)
	if got[0] != 1 || got[1] != 4 {
		t.Fatalf("ForAssignment = %v, want [1 4]", got)
	}
}

func TestOverrideFrom(t *testing.T) {
	alpha := []ActionID{2, 0, 1}
	th := Assignment{5, 5, 5}
	got := th.OverrideFrom(alpha, 1, 9)
	// Position 0 of alpha (action 2) keeps 5; actions 0 and 1 get 9.
	if got[2] != 5 || got[0] != 9 || got[1] != 9 {
		t.Fatalf("OverrideFrom = %v", got)
	}
	// Original untouched.
	if th[0] != 5 {
		t.Fatal("OverrideFrom mutated receiver")
	}
}

func TestPropertyAddSatCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Cycles(a), Cycles(b)
		if x < 0 {
			x = -x
		}
		if y < 0 {
			y = -y
		}
		return x.AddSat(y) == y.AddSat(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddSatMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Cycles(a), Cycles(b)
		return x.AddSat(y) >= x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulSat(t *testing.T) {
	cases := []struct {
		a, b, want Cycles
	}{
		{3, 4, 12},
		{-3, 4, -12},
		{3, -4, -12},
		{-3, -4, 12},
		{0, Inf, 0},
		{Inf, 0, 0},
		{0, NegInf, 0},
		{Inf, 2, Inf},
		{Inf, -2, NegInf},
		{NegInf, 3, NegInf},
		{NegInf, -3, Inf},
		{NegInf, NegInf, Inf},
		{Inf, NegInf, NegInf},
		// Overflow boundary: floor(sqrt(MaxInt64)) = 3037000499; its
		// square is finite, one more overflows.
		{3037000499, 3037000499, 3037000499 * 3037000499},
		{3037000500, 3037000500, Inf},
		{-3037000500, 3037000500, NegInf},
		{1 << 32, 1 << 31, Inf},
		{1 << 31, 1 << 31, 1 << 62},
	}
	for _, tc := range cases {
		if got := tc.a.MulSat(tc.b); got != tc.want {
			t.Errorf("%v.MulSat(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// The NegInf sentinel must be absorbing under further saturating
// arithmetic: once a slack is "never admissible", no subsequent AddSat
// or SubSat may wrap it back into the finite range. The seed's one-sided
// AddSat wrapped here (NegInf + negative overflowed past MinInt64),
// which is the bug this contract test pins down.
func TestSubSatNegInfContract(t *testing.T) {
	d := Cycles(5).SubSat(Inf)
	if d != NegInf {
		t.Fatalf("5 - Inf = %v, want NegInf", d)
	}
	if got := d.AddSat(-10); got != NegInf {
		t.Errorf("NegInf + (-10) = %v, want NegInf (wrapped?)", got)
	}
	if got := d.SubSat(3); got != NegInf {
		t.Errorf("NegInf - 3 = %v, want NegInf", got)
	}
	if got := d.SubSat(NegInf); got != NegInf {
		t.Errorf("NegInf - NegInf = %v, want NegInf (left operand wins)", got)
	}
	if got := d.AddSat(Inf); got != Inf {
		t.Errorf("NegInf + Inf = %v, want Inf (+inf dominates)", got)
	}
	if got := d.MulSat(1); got != NegInf {
		t.Errorf("NegInf * 1 = %v, want NegInf", got)
	}
	if !(d < 0) || d >= 0 {
		t.Error("NegInf must compare below zero")
	}
	if !d.IsNegInf() || d.IsInf() {
		t.Error("IsNegInf/IsInf classification wrong for NegInf")
	}
	// Near-saturated negative plus negative must clamp, not wrap.
	if got := (-(Inf - 1)).AddSat(-10); got != NegInf {
		t.Errorf("(-(Inf-1)) + (-10) = %v, want NegInf", got)
	}
	// MinInt64 entering from a cast normalises into the closed domain.
	if got := Cycles(math.MinInt64).AddSat(0); got != NegInf {
		t.Errorf("norm(MinInt64) = %v, want NegInf", got)
	}
	if got := Cycles(7).SubSat(Cycles(math.MinInt64)); got != Inf {
		t.Errorf("7 - norm(MinInt64) = %v, want Inf", got)
	}
}

// mulSatDiv is MulSat's previous division-based overflow probe, kept as
// an oracle for the bits.Mul64 form: after the zero, normalisation and
// sentinel cases, a finite product overflowed iff p/k != c.
func mulSatDiv(c, k Cycles) Cycles {
	if c == 0 || k == 0 {
		return 0
	}
	c, k = c.norm(), k.norm()
	neg := (c < 0) != (k < 0)
	if c.IsInf() || k.IsInf() || c.IsNegInf() || k.IsNegInf() {
		if neg {
			return NegInf
		}
		return Inf
	}
	p := c * k
	if p/k != c {
		if neg {
			return NegInf
		}
		return Inf
	}
	return p.norm()
}

// TestMulSatMatchesDivisionOracle pins the division-free MulSat to the
// division-based form it replaced: exhaustively over every pair of an
// edge set (zero, units, the infinities, MinInt64, powers of two around
// the 32- and 63-bit boundaries, the square-root overflow boundary),
// and on random operands of every magnitude.
func TestMulSatMatchesDivisionOracle(t *testing.T) {
	edges := []Cycles{
		0, 1, -1, 2, -2,
		math.MaxInt64, -math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		1 << 31, -(1 << 31), 1 << 32,
		3037000499, 3037000500,
		1 << 62, -(1 << 62),
	}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := a.MulSat(b), mulSatDiv(a, b); got != want {
				t.Errorf("MulSat(%d, %d) = %d, oracle %d", int64(a), int64(b), int64(got), int64(want))
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	operand := func() Cycles {
		// A random magnitude of 0..63 bits and a random sign, so small,
		// mid-range and near-overflow products are all common.
		v := Cycles(r.Int63() >> uint(r.Intn(64)))
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	for n := 0; n < 200000; n++ {
		a, b := operand(), operand()
		if got, want := a.MulSat(b), mulSatDiv(a, b); got != want {
			t.Fatalf("MulSat(%d, %d) = %d, oracle %d", int64(a), int64(b), int64(got), int64(want))
		}
	}
}
