package geo

import (
	"container/heap"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// refFindPath is the planner FindPath replaced: maps for the g-scores,
// parents and closed set, and an interface-boxed container/heap open set.
// FuzzFindPath holds the dense planner to its routes bit for bit.
func (g *Grid) refFindPath(start, goal Vec) ([]Vec, error) {
	s, t := g.CellOf(start), g.CellOf(goal)
	if !g.InBounds(s) || !g.InBounds(t) {
		return nil, ErrNoPath
	}
	if !g.At(s).Drivable() || !g.At(t).Drivable() {
		return nil, ErrNoPath
	}
	if s == t {
		return []Vec{goal}, nil
	}

	idx := func(c Cell) int { return c.Row*g.cols + c.Col }
	gScore := make(map[int]float64, 256)
	came := make(map[int]Cell, 256)
	gScore[idx(s)] = 0

	open := &refQueue{}
	heap.Init(open)
	heap.Push(open, refItem{cell: s, priority: g.heuristic(s, t)})

	closed := make(map[int]bool, 256)

	for open.Len() > 0 {
		item, ok := heap.Pop(open).(refItem)
		if !ok {
			break
		}
		cur := item.cell
		ci := idx(cur)
		if closed[ci] {
			continue
		}
		closed[ci] = true
		if cur == t {
			var rev []Cell
			for c := cur; c != s; c = came[idx(c)] {
				rev = append(rev, c)
			}
			path := make([]Vec, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				path = append(path, g.Center(rev[i]))
			}
			path[len(path)-1] = goal
			return path, nil
		}
		for _, step := range neighborSteps {
			next := Cell{Col: cur.Col + step.dc, Row: cur.Row + step.dr}
			if !g.InBounds(next) || !g.At(next).Drivable() {
				continue
			}
			if step.dc != 0 && step.dr != 0 {
				side1 := Cell{Col: cur.Col + step.dc, Row: cur.Row}
				side2 := Cell{Col: cur.Col, Row: cur.Row + step.dr}
				if !g.At(side1).Drivable() || !g.At(side2).Drivable() {
					continue
				}
			}
			cost := step.cost * g.cellSize
			if g.At(next) == Road {
				cost *= roadCostFactor
			}
			ni := idx(next)
			tentative := gScore[ci] + cost
			if prev, seen := gScore[ni]; seen && tentative >= prev {
				continue
			}
			gScore[ni] = tentative
			came[ni] = cur
			heap.Push(open, refItem{cell: next, priority: tentative + g.heuristic(next, t)})
		}
	}
	return nil, ErrNoPath
}

type refItem struct {
	cell     Cell
	priority float64
}

type refQueue []refItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].priority < q[j].priority }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Terrain layouts for FuzzFindPath.
const (
	layoutForest      = iota // random trees and rocks
	layoutPillars            // rocks on odd (col, row): diagonal steps past them cut corners
	layoutOpen               // no obstacles: every route has equal-cost ties
	layoutBlockedGoal        // random forest with the goal's cell turned to rock
	layoutCount
)

// fuzzGrid builds the grid one FuzzFindPath input describes and the start
// and goal world positions, which may fall up to a cell outside the grid.
func fuzzGrid(seed int64, cols, rows, layout, density uint8, road bool, sx, sy, gx, gy uint16) (*Grid, Vec, Vec) {
	cell := []float64{1, 0.5, 2.5}[seed&3%3]
	g, err := NewGrid(1+int(cols%40), 1+int(rows%40), cell)
	if err != nil {
		panic(err)
	}
	at := func(x, y uint16) Vec {
		return V(float64(x)/65535*(g.Width()+2*cell)-cell, float64(y)/65535*(g.Height()+2*cell)-cell)
	}
	start, goal := at(sx, sy), at(gx, gy)
	if road {
		g.CarveRoad(at(sy, gx), at(gy, sx))
	}
	switch layout % layoutCount {
	case layoutPillars:
		for row := 1; row < g.rows; row += 2 {
			for col := 1; col < g.cols; col += 2 {
				g.Set(C(col, row), Rock)
			}
		}
	case layoutOpen:
	default:
		d := float64(density%80) / 100
		g.GenerateForest(rng.New(seed), ForestOptions{TreeDensity: d, RockDensity: d / 4})
		if layout%layoutCount == layoutBlockedGoal {
			g.Set(g.CellOf(goal), Rock)
		}
	}
	return g, start, goal
}

// FuzzFindPath checks the dense planner against refFindPath: the same error,
// and the same waypoints by math.Float64bits, appended after what dst held.
func FuzzFindPath(f *testing.F) {
	// seed, cols, rows, layout, density, road, sx, sy, gx, gy
	f.Add(int64(1), uint8(29), uint8(19), uint8(layoutForest), uint8(25), true, uint16(2000), uint16(30000), uint16(63000), uint16(33000))
	f.Add(int64(2), uint8(24), uint8(24), uint8(layoutPillars), uint8(0), false, uint16(1000), uint16(1000), uint16(58000), uint16(58000))
	f.Add(int64(3), uint8(30), uint8(20), uint8(layoutOpen), uint8(0), false, uint16(32768), uint16(3000), uint16(32768), uint16(60000))
	f.Add(int64(4), uint8(20), uint8(20), uint8(layoutOpen), uint8(0), true, uint16(32768), uint16(2000), uint16(32768), uint16(63000))
	f.Add(int64(5), uint8(25), uint8(25), uint8(layoutBlockedGoal), uint8(20), false, uint16(5000), uint16(5000), uint16(50000), uint16(40000))
	f.Add(int64(6), uint8(15), uint8(15), uint8(layoutOpen), uint8(0), false, uint16(30000), uint16(30000), uint16(30100), uint16(30100)) // s == t
	f.Add(int64(7), uint8(39), uint8(39), uint8(layoutForest), uint8(60), false, uint16(1000), uint16(1000), uint16(64000), uint16(64000))
	f.Add(int64(8), uint8(12), uint8(12), uint8(layoutForest), uint8(10), true, uint16(0), uint16(65535), uint16(65535), uint16(0)) // off-grid ends
	f.Fuzz(func(t *testing.T, seed int64, cols, rows, layout, density uint8, road bool, sx, sy, gx, gy uint16) {
		g, start, goal := fuzzGrid(seed, cols, rows, layout, density, road, sx, sy, gx, gy)
		want, wantErr := g.refFindPath(start, goal)
		prefix := []Vec{V(-7, -7)}
		got, err := g.FindPath(prefix, start, goal)
		if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
			t.Fatalf("err = %v, reference %v", err, wantErr)
		}
		if len(got) == 0 || got[0] != prefix[0] {
			t.Fatalf("route did not keep dst's waypoint: %v", got)
		}
		got = got[1:]
		if len(got) != len(want) {
			t.Fatalf("%d waypoints, reference %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
				math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
				t.Fatalf("waypoint %d = %v, reference %v", i, got[i], want[i])
			}
		}
	})
}

// TestFindPathCorpusCovers pins that FuzzFindPath's seeded corpus reaches
// the cases it exists for: a blocked goal, s == t, a diagonal step refused
// for cutting a corner, and equal priorities in the open set.
func TestFindPathCorpusCovers(t *testing.T) {
	type input struct {
		seed                        int64
		cols, rows, layout, density uint8
		road                        bool
		sx, sy, gx, gy              uint16
	}
	cases := []struct {
		name  string
		in    input
		holds func(g *Grid, s, t Cell, route []Vec, err error) bool
	}{
		{"blocked goal", input{5, 25, 25, layoutBlockedGoal, 20, false, 5000, 5000, 50000, 40000},
			func(g *Grid, s, t Cell, route []Vec, err error) bool {
				return g.InBounds(t) && !g.At(t).Drivable() && errors.Is(err, ErrNoPath)
			}},
		{"s == t", input{6, 15, 15, layoutOpen, 0, false, 30000, 30000, 30100, 30100},
			func(g *Grid, s, t Cell, route []Vec, err error) bool {
				return s == t && err == nil && len(route) == 1
			}},
		{"corner cut", input{2, 24, 24, layoutPillars, 0, false, 1000, 1000, 58000, 58000},
			func(g *Grid, s, t Cell, route []Vec, err error) bool {
				if err != nil {
					return false
				}
				for _, p := range route {
					if cutsCorner(g, g.CellOf(p)) {
						return true
					}
				}
				return false
			}},
		{"equal-cost tie", input{3, 30, 20, layoutOpen, 0, false, 32768, 3000, 32768, 60000},
			func(g *Grid, s, t Cell, route []Vec, err error) bool {
				return err == nil && hasPriorityTie(g, s, t)
			}},
	}
	for _, c := range cases {
		in := c.in
		g, start, goal := fuzzGrid(in.seed, in.cols, in.rows, in.layout, in.density, in.road, in.sx, in.sy, in.gx, in.gy)
		route, err := g.FindPath(nil, start, goal)
		if !c.holds(g, g.CellOf(start), g.CellOf(goal), route, err) {
			t.Errorf("%s: corpus input does not reach the case (route %v, err %v)", c.name, route, err)
		}
	}
}

// cutsCorner reports whether some diagonal step from c reaches a drivable
// cell past a blocked side, the step the planner refuses.
func cutsCorner(g *Grid, c Cell) bool {
	for _, step := range neighborSteps {
		if step.dc == 0 || step.dr == 0 || !g.At(C(c.Col+step.dc, c.Row+step.dr)).Drivable() {
			continue
		}
		if !g.At(C(c.Col+step.dc, c.Row)).Drivable() || !g.At(C(c.Col, c.Row+step.dr)).Drivable() {
			return true
		}
	}
	return false
}

// hasPriorityTie reports whether two of the start's neighbours enter the
// open set with the same priority.
func hasPriorityTie(g *Grid, s, t Cell) bool {
	seen := map[float64]bool{}
	for _, step := range neighborSteps {
		n := Cell{Col: s.Col + step.dc, Row: s.Row + step.dr}
		if !g.InBounds(n) || !g.At(n).Drivable() {
			continue
		}
		p := step.cost*g.cellSize + g.heuristic(n, t)
		if seen[p] {
			return true
		}
		seen[p] = true
	}
	return false
}
