package worksite

import (
	"sync"
	"testing"
)

// TestCommissionerSharesOneBundlePerKey: 32 goroutines ask one commissioner
// for the secured bundle with and without the drone. Every caller of a key
// gets the same pointer, so each key was built exactly once (a second build
// would have been handed to some caller), and the two keys get different
// bundles.
func TestCommissionerSharesOneBundlePerKey(t *testing.T) {
	var c Commissioner
	const workers = 32
	got := make([]*SharedSecurity, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := DefaultConfig(0)
			cfg.Profile = Secured()
			cfg.DroneEnabled = i%2 == 0
			sh, err := c.Security(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = sh
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 2; i < workers; i++ {
		if got[i] != got[i%2] {
			t.Fatalf("caller %d got a different bundle than caller %d for the same key", i, i%2)
		}
	}
	if got[0] == got[1] {
		t.Fatal("the drone and no-drone keys share one bundle")
	}
	if !got[0].droneEnabled || got[1].droneEnabled || got[0].bundle == nil || got[1].bundle == nil {
		t.Fatal("bundles do not match the configs that asked for them")
	}
	if len(c.bundles) != 2 {
		t.Fatalf("commissioner holds %d bundles, want 2", len(c.bundles))
	}
}

// TestCommissionerRejectsInvalidConfig: an invalid config is refused before
// it can commission, so it cannot poison the key a valid config shares.
func TestCommissionerRejectsInvalidConfig(t *testing.T) {
	var c Commissioner
	bad := DefaultConfig(0)
	bad.Profile = Secured()
	bad.Cols = 0
	if _, err := c.Security(bad); err == nil {
		t.Fatal("invalid config commissioned")
	}
	good := DefaultConfig(0)
	good.Profile = Secured()
	if sh, err := c.Security(good); err != nil || sh.bundle == nil {
		t.Fatalf("valid config after a rejected one: bundle %v, err %v", sh, err)
	}
}
