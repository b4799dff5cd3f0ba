package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseeded stream diverged at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const buckets = 10
	const samples = 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	want := samples / buckets
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Fatalf("bucket %d has %d samples, want about %d", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const p = 0.3
	const samples = 200000
	hits := 0
	for i := 0; i < samples; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / samples
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestMixDeterministic(t *testing.T) {
	if Mix(1, 2, 3) != Mix(1, 2, 3) {
		t.Fatal("Mix is not deterministic")
	}
	if Mix(1, 2, 3) == Mix(3, 2, 1) {
		t.Fatal("Mix should be order sensitive")
	}
}

func TestBoundedUint64ImageVariesAcrossKeys(t *testing.T) {
	// Regression test: with a weak mixer the image of the map
	// initiator -> BoundedUint64(n, seed, round, initiator) was almost the same
	// set for every round, which froze the set of nodes reachable by "random"
	// contacts in the simulator. The union over several rounds must cover
	// nearly the whole range.
	const n = 5000
	union := make(map[uint64]bool, n)
	for round := uint64(1); round <= 10; round++ {
		for init := uint64(0); init < n; init++ {
			union[BoundedUint64(n, 1, 0xc0ffee, round, init, 0)] = true
		}
	}
	if len(union) < n*95/100 {
		t.Fatalf("10 rounds of n draws cover only %d of %d values", len(union), n)
	}
}

func TestMixSingleBitAvalanche(t *testing.T) {
	base := Mix(1, 2, 3)
	diffBits := 0
	v := base ^ Mix(1, 2, 2)
	for ; v != 0; v &= v - 1 {
		diffBits++
	}
	if diffBits < 16 {
		t.Fatalf("flipping one input bit changed only %d output bits", diffBits)
	}
}

func TestBoundedUint64Property(t *testing.T) {
	f := func(n uint64, a, b uint64) bool {
		n = n%100000 + 1
		v := BoundedUint64(n, a, b)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedUint64Zero(t *testing.T) {
	if BoundedUint64(0, 1, 2) != 0 {
		t.Fatal("BoundedUint64(0, ...) should be 0")
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Every bit position should be set roughly half the time.
	r := New(41)
	const samples = 20000
	counts := make([]int, 64)
	for i := 0; i < samples; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if math.Abs(float64(c)-samples/2) > 0.03*samples {
			t.Fatalf("bit %d set %d times out of %d", b, c, samples)
		}
	}
}
