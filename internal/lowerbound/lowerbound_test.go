package lowerbound

import (
	"math"
	"testing"
)

func TestTheoreticalMinRounds(t *testing.T) {
	if TheoreticalMinRounds(2) != 0 {
		t.Fatal("tiny n should give 0")
	}
	v := TheoreticalMinRounds(1 << 16)
	if math.Abs(v-0.99*4) > 1e-9 {
		t.Fatalf("TheoreticalMinRounds(2^16) = %v, want 3.96", v)
	}
	if TheoreticalMinRounds(1000000) <= TheoreticalMinRounds(1000) {
		t.Fatal("bound must grow with n")
	}
}

func TestDeltaBound(t *testing.T) {
	if DeltaBound(1024, 2) != 10 {
		t.Fatalf("DeltaBound(1024,2) = %v, want 10", DeltaBound(1024, 2))
	}
	if DeltaBound(1024, 32) != 2 {
		t.Fatalf("DeltaBound(1024,32) = %v, want 2", DeltaBound(1024, 32))
	}
	if DeltaBound(1, 2) != 0 || DeltaBound(100, 1) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestMinRoundsIsAtLeastTheoreticalBound(t *testing.T) {
	for _, n := range []int{1000, 10000, 100000} {
		for seed := uint64(1); seed <= 3; seed++ {
			minT, trace := MinRounds(n, seed)
			if len(trace) == 0 || trace[len(trace)-1].T != minT {
				t.Fatalf("trace should end at the returned T, got %d / %+v", minT, trace)
			}
			if float64(minT) < math.Floor(TheoreticalMinRounds(n)) {
				t.Fatalf("knowledge-graph feasibility %d below the analytic bound %.2f at n=%d",
					minT, TheoreticalMinRounds(n), n)
			}
			// All T before the returned one must be infeasible, the last feasible.
			for i, f := range trace {
				last := i == len(trace)-1
				if f.Possible != last {
					t.Fatalf("feasibility trace inconsistent at T=%d: %+v", f.T, trace)
				}
			}
		}
	}
}

func TestMinRoundsGrowsSlowly(t *testing.T) {
	small, _ := MinRounds(1000, 7)
	large, _ := MinRounds(1000000, 7)
	if large < small {
		t.Fatalf("feasibility bound should not shrink with n: %d vs %d", small, large)
	}
	if large > small+3 {
		t.Fatalf("feasibility bound should grow like log log n: %d (1k) vs %d (1M)", small, large)
	}
}

func TestMinRoundsDegenerate(t *testing.T) {
	if r, trace := MinRounds(1, 1); r != 0 || trace != nil {
		t.Fatal("n=1 should be trivially 0 rounds")
	}
}
