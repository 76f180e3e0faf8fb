package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seed diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	a := root.Derive("radio")
	b := root.Derive("sensors")
	same := 0
	for i := 0; i < 200; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams correlated: %d/200 identical draws", same)
	}
}

func TestDeriveRepeatable(t *testing.T) {
	a := New(7).Derive("x")
	b := New(7).Derive("x")
	for i := 0; i < 50; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) derivation diverged")
		}
	}
}

func TestDeriveDoesNotPerturbParent(t *testing.T) {
	a := New(3)
	b := New(3)
	_ = a.Derive("child")
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Derive consumed parent stream state")
		}
	}
}

func TestBoolBounds(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(99)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency = %.3f, want ~0.3", frac)
	}
}

func TestExp(t *testing.T) {
	r := New(5)
	if !math.IsInf(r.Exp(0), 1) {
		t.Fatal("Exp(0) should be +Inf")
	}
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	mean := sum / float64(n)
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("Exp(2) mean = %.3f, want ~0.5", mean)
	}
}

func TestPick(t *testing.T) {
	r := New(11)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Pick([]float64{1, 2, 1})]++
	}
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("weighted pick did not prefer heavy index: %v", counts)
	}
	if got := r.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights: got %d, want 0", got)
	}
	if got := r.Pick([]float64{0, 5, 0}); got != 1 {
		t.Fatalf("single positive weight: got %d, want 1", got)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	var sum, sumSq float64
	n := 50000
	for i := 0; i < n; i++ {
		x := r.Norm(10, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Norm mean = %.3f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("Norm stddev = %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestReadDeterministic(t *testing.T) {
	a, b := New(123).Derive("k"), New(123).Derive("k")
	bufA, bufB := make([]byte, 64), make([]byte, 64)
	if _, err := a.Read(bufA); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatal("Read streams diverged")
		}
	}
}

func TestPropertyFloat64Range(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		for i := 0; i < 20; i++ {
			x := r.Float64()
			if x < 0 || x >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRangeWithin(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		for i := 0; i < 20; i++ {
			x := r.Range(-5, 5)
			if x < -5 || x >= 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		p := r.Perm(10)
		seen := make(map[int]bool, 10)
		for _, v := range p {
			if v < 0 || v >= 10 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == 10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSlabMatchesFresh runs a slab through one tree of streams, hands them
// back, and builds a different tree on the recycled generators: every
// stream of the second tree, grandchildren included, must draw what a fresh
// New and Derive draw. The first tree leaves a partly consumed Read buffer
// behind, which re-seeding must drop.
func TestSlabMatchesFresh(t *testing.T) {
	var slab Slab
	old := slab.New(11)
	for _, name := range []string{"forest", "radio", "sensors"} {
		s := old.Derive(name)
		s.Derive(name + "/child").Int63()
		var b [3]byte
		_, _ = s.Read(b[:])
		s.Float64()
	}
	slab.Reset()

	type pair struct {
		name        string
		slab, fresh *Rand
	}
	root, freshRoot := slab.New(42), New(42)
	streams := []pair{{"root", root, freshRoot}}
	for _, name := range []string{"workers", "sensors", "worker-move", "radio"} {
		s, f := root.Derive(name), freshRoot.Derive(name)
		streams = append(streams, pair{name, s, f}, pair{name + "/gnss", s.Derive("gnss"), f.Derive("gnss")})
	}
	if len(slab.rands) != len(streams) {
		t.Fatalf("slab holds %d generators for %d streams", len(slab.rands), len(streams))
	}
	for _, p := range streams {
		var a, b [5]byte
		_, _ = p.slab.Read(a[:])
		_, _ = p.fresh.Read(b[:])
		if a != b {
			t.Fatalf("%s: Read = %x, fresh %x", p.name, a, b)
		}
		for i := 0; i < 10000; i++ {
			if got, want := p.slab.Int63(), p.fresh.Int63(); got != want {
				t.Fatalf("%s: draw %d = %d, fresh %d", p.name, i, got, want)
			}
		}
	}
}

// TestDeriveAllocs pins the cost of a stream: a fresh Derive allocates its
// generator, and a slab's recycled stream allocates nothing.
func TestDeriveAllocs(t *testing.T) {
	root := New(1)
	if n := testing.AllocsPerRun(20, func() { root.Derive("radio") }); n == 0 {
		t.Fatal("fresh Derive: 0 allocs, want its generator's")
	}
	var slab Slab
	r := slab.New(1)
	r.Derive("radio")
	if n := testing.AllocsPerRun(20, func() {
		slab.Reset()
		slab.New(1).Derive("radio")
	}); n != 0 {
		t.Fatalf("recycled slab stream: %v allocs, want 0", n)
	}
}
