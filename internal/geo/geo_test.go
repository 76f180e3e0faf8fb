package geo

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestVecOps(t *testing.T) {
	tests := []struct {
		name string
		got  Vec
		want Vec
	}{
		{"add", V(1, 2).Add(V(3, 4)), V(4, 6)},
		{"sub", V(3, 4).Sub(V(1, 2)), V(2, 2)},
		{"scale", V(1, -2).Scale(3), V(3, -6)},
		{"lerp-mid", V(0, 0).Lerp(V(10, 20), 0.5), V(5, 10)},
		{"lerp-end", V(0, 0).Lerp(V(10, 20), 1), V(10, 20)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Fatalf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVecLenDist(t *testing.T) {
	if got := V(3, 4).Len(); got != 5 {
		t.Fatalf("Len = %v, want 5", got)
	}
	if got := V(1, 1).Dist(V(4, 5)); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := V(0, 0).Norm(); got != (Vec{}) {
		t.Fatalf("Norm of zero = %v, want zero", got)
	}
	n := V(10, 0).Norm()
	if math.Abs(n.Len()-1) > 1e-12 {
		t.Fatalf("Norm length = %v, want 1", n.Len())
	}
}

func TestPoseForward(t *testing.T) {
	p := Pose{Heading: math.Pi / 2}
	f := p.Forward()
	if math.Abs(f.X) > 1e-12 || math.Abs(f.Y-1) > 1e-12 {
		t.Fatalf("Forward = %v, want (0,1)", f)
	}
}

func mustGrid(t *testing.T, cols, rows int, cell float64) *Grid {
	t.Helper()
	g, err := NewGrid(cols, rows, cell)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5, 1); err == nil {
		t.Fatal("want error for zero cols")
	}
	if _, err := NewGrid(5, 5, 0); err == nil {
		t.Fatal("want error for zero cell size")
	}
}

func TestGridBoundsAndTerrain(t *testing.T) {
	g := mustGrid(t, 10, 10, 2)
	if g.Width() != 20 || g.Height() != 20 {
		t.Fatalf("dims = %vx%v, want 20x20", g.Width(), g.Height())
	}
	if got := g.At(C(-1, 0)); got != Rock {
		t.Fatalf("out-of-bounds terrain = %v, want Rock", got)
	}
	g.Set(C(3, 4), Tree)
	if got := g.At(C(3, 4)); got != Tree {
		t.Fatalf("terrain = %v, want Tree", got)
	}
	g.Set(C(100, 100), Tree) // must not panic
	if !g.At(C(3, 4)).Occludes() {
		t.Fatal("Tree must occlude")
	}
	if g.At(C(3, 4)).Drivable() {
		t.Fatal("Tree must not be drivable")
	}
	if !Road.Drivable() || Road.Occludes() {
		t.Fatal("Road must be drivable and transparent")
	}
}

func TestCellCenterRoundTrip(t *testing.T) {
	g := mustGrid(t, 8, 8, 5)
	for _, c := range []Cell{C(0, 0), C(3, 7), C(7, 0)} {
		if got := g.CellOf(g.Center(c)); got != c {
			t.Fatalf("CellOf(Center(%v)) = %v", c, got)
		}
	}
}

func TestLineOfSightClear(t *testing.T) {
	g := mustGrid(t, 20, 20, 1)
	if !g.LineOfSight(V(0.5, 0.5), V(19.5, 19.5)) {
		t.Fatal("empty grid must have LOS")
	}
}

func TestLineOfSightBlockedByTree(t *testing.T) {
	g := mustGrid(t, 20, 20, 1)
	// Wall of trees across the middle.
	for col := 0; col < 20; col++ {
		g.Set(C(col, 10), Tree)
	}
	if g.LineOfSight(V(5, 2), V(5, 18)) {
		t.Fatal("tree wall must block LOS")
	}
	if !g.LineOfSight(V(5, 2), V(15, 2)) {
		t.Fatal("parallel-to-wall LOS must be clear")
	}
}

func TestLineOfSightEndpointsDontOcclude(t *testing.T) {
	g := mustGrid(t, 10, 10, 1)
	g.Set(C(1, 1), Tree)
	g.Set(C(8, 8), Tree)
	if !g.LineOfSight(g.Center(C(1, 1)), g.Center(C(8, 8))) {
		t.Fatal("endpoint cells must not occlude")
	}
}

func TestFirstObstruction(t *testing.T) {
	g := mustGrid(t, 20, 1, 1)
	g.Set(C(7, 0), Rock)
	g.Set(C(12, 0), Tree)
	c, blocked := g.FirstObstruction(V(0.5, 0.5), V(19.5, 0.5))
	if !blocked {
		t.Fatal("want obstruction")
	}
	if c != C(7, 0) {
		t.Fatalf("first obstruction = %v, want (7,0)", c)
	}
	if _, blocked := g.FirstObstruction(V(0.5, 0.5), V(5.5, 0.5)); blocked {
		t.Fatal("short segment must be clear")
	}
}

func TestFindPathStraight(t *testing.T) {
	g := mustGrid(t, 10, 10, 1)
	path, err := g.FindPath(nil, V(0.5, 0.5), V(9.5, 0.5))
	if err != nil {
		t.Fatalf("FindPath: %v", err)
	}
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	last := path[len(path)-1]
	if last.Dist(V(9.5, 0.5)) > 1e-9 {
		t.Fatalf("path must end at goal, got %v", last)
	}
}

func TestFindPathAroundWall(t *testing.T) {
	g := mustGrid(t, 10, 10, 1)
	// Wall with one gap at row 9.
	for row := 0; row < 9; row++ {
		g.Set(C(5, row), Rock)
	}
	path, err := g.FindPath(nil, V(1.5, 1.5), V(8.5, 1.5))
	if err != nil {
		t.Fatalf("FindPath: %v", err)
	}
	// The path must pass through the gap region (row >= 8).
	sawGap := false
	for _, p := range path {
		if g.CellOf(p).Row >= 8 {
			sawGap = true
		}
		if !g.At(g.CellOf(p)).Drivable() {
			t.Fatalf("path crosses blocked cell at %v", p)
		}
	}
	if !sawGap {
		t.Fatal("path did not route around the wall")
	}
}

func TestFindPathNoRoute(t *testing.T) {
	g := mustGrid(t, 10, 10, 1)
	for row := 0; row < 10; row++ {
		g.Set(C(5, row), Rock)
	}
	_, err := g.FindPath(nil, V(1.5, 1.5), V(8.5, 1.5))
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestFindPathStartEqualsGoal(t *testing.T) {
	g := mustGrid(t, 5, 5, 1)
	path, err := g.FindPath(nil, V(2.5, 2.5), V(2.6, 2.6))
	if err != nil {
		t.Fatalf("FindPath: %v", err)
	}
	if len(path) != 1 {
		t.Fatalf("same-cell path length = %d, want 1", len(path))
	}
}

func TestFindPathPrefersRoad(t *testing.T) {
	g := mustGrid(t, 20, 3, 1)
	g.CarveRoad(V(0.5, 1.5), V(19.5, 1.5))
	path, err := g.FindPath(nil, V(0.5, 0.5), V(19.5, 0.5))
	if err != nil {
		t.Fatalf("FindPath: %v", err)
	}
	onRoad := 0
	for _, p := range path {
		if g.At(g.CellOf(p)) == Road {
			onRoad++
		}
	}
	if onRoad < len(path)/2 {
		t.Fatalf("path used road for %d/%d waypoints, want majority", onRoad, len(path))
	}
}

func TestGenerateForestDensity(t *testing.T) {
	g := mustGrid(t, 50, 50, 2)
	r := rng.New(42)
	g.GenerateForest(r, ForestOptions{TreeDensity: 0.3})
	frac := float64(g.CountTerrain(Tree)) / float64(50*50)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("tree fraction = %.3f, want ~0.3", frac)
	}
}

func TestGenerateForestClearings(t *testing.T) {
	g := mustGrid(t, 40, 40, 1)
	r := rng.New(7)
	center := V(20, 20)
	g.GenerateForest(r, ForestOptions{
		TreeDensity: 0.9,
		ClearRadius: 5,
		Clearings:   []Vec{center},
	})
	for dc := -3; dc <= 3; dc++ {
		for dr := -3; dr <= 3; dr++ {
			c := C(20+dc, 20+dr)
			if g.Center(c).Dist(center) <= 5 && g.At(c) != Ground {
				t.Fatalf("clearing cell %v is %v, want Ground", c, g.At(c))
			}
		}
	}
}

func TestGenerateForestPreservesRoads(t *testing.T) {
	g := mustGrid(t, 30, 30, 1)
	g.CarveRoad(V(0.5, 15.5), V(29.5, 15.5))
	before := g.CountTerrain(Road)
	g.GenerateForest(rng.New(3), ForestOptions{TreeDensity: 0.5})
	if after := g.CountTerrain(Road); after != before {
		t.Fatalf("roads changed: %d -> %d", before, after)
	}
}

// traverse returns the cells the walker yields for segment a→b, in order.
func (g *Grid) traverse(a, b Vec) []Cell {
	w := newGridWalker(g, a, b)
	var cells []Cell
	for c, ok := w.next(); ok; c, ok = w.next() {
		cells = append(cells, c)
	}
	return cells
}

func TestPropertyTraverseConnectsEndpoints(t *testing.T) {
	g := mustGrid(t, 30, 30, 1)
	f := func(ax, ay, bx, by uint8) bool {
		a := V(float64(ax%30)+0.5, float64(ay%30)+0.5)
		b := V(float64(bx%30)+0.5, float64(by%30)+0.5)
		cells := g.traverse(a, b)
		if len(cells) == 0 {
			return false
		}
		if cells[0] != g.CellOf(a) {
			return false
		}
		// Successive cells are 4-adjacent (DDA moves one axis per step).
		for i := 1; i < len(cells); i++ {
			dc := cells[i].Col - cells[i-1].Col
			dr := cells[i].Row - cells[i-1].Row
			if dc*dc+dr*dr != 1 {
				return false
			}
		}
		return cells[len(cells)-1] == g.CellOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPathEndsAtGoalAndStaysDrivable(t *testing.T) {
	g := mustGrid(t, 25, 25, 1)
	g.GenerateForest(rng.New(9), ForestOptions{TreeDensity: 0.2})
	// Guarantee start/goal corners are open.
	g.Set(C(0, 0), Ground)
	g.Set(C(24, 24), Ground)
	f := func(gx, gy uint8) bool {
		goalCell := C(int(gx%25), int(gy%25))
		if !g.At(goalCell).Drivable() {
			return true // skip blocked goals
		}
		goal := g.Center(goalCell)
		path, err := g.FindPath(nil, V(0.5, 0.5), goal)
		if errors.Is(err, ErrNoPath) {
			return true // disconnected pockets are legitimate
		}
		if err != nil {
			return false
		}
		for _, p := range path {
			if !g.At(g.CellOf(p)).Drivable() {
				return false
			}
		}
		return path[len(path)-1].Dist(goal) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
