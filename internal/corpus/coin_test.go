package corpus

import (
	"testing"

	"adaptio/internal/xrand"
)

// TestRepeatThresholdIsTheFloatCoin checks the entropy generator's integer
// short-run coin against the float compare it stands for, Float64() < 0.03
// on the same draw: on both sides of the threshold and on 10⁶ raw draws.
func TestRepeatThresholdIsTheFloatCoin(t *testing.T) {
	coin := func(k uint64) bool { return float64(k)/(1<<53) < 0.03 }
	if !coin(repeatThreshold-1) || coin(repeatThreshold) {
		t.Fatalf("threshold %d: the float coin reads %v at k-1 and %v at k, want true then false",
			repeatThreshold, coin(repeatThreshold-1), coin(repeatThreshold))
	}
	r := xrand.New(1)
	for i := 0; i < 1_000_000; i++ {
		if k := r.Uint64() >> 11; (k < repeatThreshold) != coin(k) {
			t.Fatalf("draw %d: k = %d, integer coin %v, float coin %v", i, k, k < repeatThreshold, coin(k))
		}
	}
}
