package geo

import (
	"errors"
	"math"
	"slices"
	"sync"
)

// ErrNoPath is returned when the planner cannot connect start and goal.
var ErrNoPath = errors.New("no drivable path between start and goal")

// roadCostFactor makes roads preferred over raw ground by the planner.
const roadCostFactor = 0.5

// FindPath plans a drivable route from world position start to goal using A*
// over the grid's drivable cells (8-connected, corner-cut safe). It appends
// the route to dst as a sequence of world waypoints ending at the goal and
// returns the extended slice, or dst unchanged and ErrNoPath.
//
// The search runs on dense scratch borrowed from a pool for the length of
// the call, so a caller that passes its previous route as dst[:0] replans
// without allocating.
func (g *Grid) FindPath(dst []Vec, start, goal Vec) ([]Vec, error) {
	s, t := g.CellOf(start), g.CellOf(goal)
	if !g.InBounds(s) || !g.InBounds(t) {
		return dst, ErrNoPath
	}
	if !g.At(s).Drivable() || !g.At(t).Drivable() {
		return dst, ErrNoPath
	}
	if s == t {
		return append(dst, goal), nil
	}

	sc := pathScratchPool.Get().(*pathScratch)
	defer pathScratchPool.Put(sc)
	sc.begin(len(g.cells))
	si, ti := int32(g.index(s)), int32(g.index(t))
	sc.see(si)
	sc.g[si] = 0
	sc.open.push(openItem{cell: si, priority: g.heuristic(s, t)})

	for len(sc.open) > 0 {
		ci := sc.open.pop().cell
		if sc.mark[ci] == sc.gen+1 {
			continue
		}
		sc.mark[ci] = sc.gen + 1 // closed
		if ci == ti {
			return g.appendRoute(dst, sc.parent, si, ti, goal), nil
		}
		cur := g.cellAt(ci)
		for _, step := range neighborSteps {
			next := Cell{Col: cur.Col + step.dc, Row: cur.Row + step.dr}
			if !g.InBounds(next) || !g.At(next).Drivable() {
				continue
			}
			// Disallow cutting corners diagonally past blocked cells.
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
			ni := int32(g.index(next))
			tentative := sc.g[ci] + cost
			if sc.seen(ni) && tentative >= sc.g[ni] {
				continue
			}
			sc.see(ni)
			sc.g[ni] = tentative
			sc.parent[ni] = ci
			sc.open.push(openItem{cell: ni, priority: tentative + g.heuristic(next, t)})
		}
	}
	return dst, ErrNoPath
}

func (g *Grid) heuristic(a, b Cell) float64 {
	dx := float64(a.Col - b.Col)
	dy := float64(a.Row - b.Row)
	return math.Hypot(dx, dy) * g.cellSize * roadCostFactor
}

func (g *Grid) index(c Cell) int { return c.Row*g.cols + c.Col }

func (g *Grid) cellAt(i int32) Cell { return Cell{Col: int(i) % g.cols, Row: int(i) / g.cols} }

// appendRoute appends the cell centres from the start's successor to the
// goal's cell, with the goal itself in place of the last centre.
func (g *Grid) appendRoute(dst []Vec, parent []int32, s, t int32, goal Vec) []Vec {
	n := 0
	for c := t; c != s; c = parent[c] {
		n++
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	i := base + n - 1
	for c := t; c != s; c = parent[c] {
		dst[i] = g.Center(g.cellAt(c))
		i--
	}
	dst[base+n-1] = goal
	return dst
}

var neighborSteps = []struct {
	dc, dr int
	cost   float64
}{
	{1, 0, 1}, {-1, 0, 1}, {0, 1, 1}, {0, -1, 1},
	{1, 1, math.Sqrt2}, {1, -1, math.Sqrt2}, {-1, 1, math.Sqrt2}, {-1, -1, math.Sqrt2},
}

// pathScratchPool recycles planner scratch between FindPath calls. A pool,
// not a field on the Grid, so no grid keeps it past a call and a collection
// can drop it.
var pathScratchPool = sync.Pool{New: func() any { return new(pathScratch) }}

// pathScratch is the planner's dense search state, indexed by cell. mark
// stamps a cell seen (gen) or closed (gen+1) in the current search, so
// starting a search clears nothing: g and parent are valid only where mark
// is at least gen.
type pathScratch struct {
	gen    uint32
	mark   []uint32
	g      []float64
	parent []int32
	open   openHeap
}

// begin readies the scratch for a search over n cells.
func (sc *pathScratch) begin(n int) {
	if len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.g = make([]float64, n)
		sc.parent = make([]int32, n)
	}
	if sc.gen >= math.MaxUint32-2 {
		clear(sc.mark)
		sc.gen = 0
	}
	sc.gen += 2
	sc.open = sc.open[:0]
}

func (sc *pathScratch) seen(i int32) bool { return sc.mark[i] >= sc.gen }

// see marks i seen, leaving a closed cell closed.
func (sc *pathScratch) see(i int32) {
	if sc.mark[i] < sc.gen {
		sc.mark[i] = sc.gen
	}
}

type openItem struct {
	cell     int32
	priority float64
}

// openHeap is a binary min-heap on priority. push and pop are
// container/heap's Push and Pop with its up and down inlined, comparison for
// comparison and swap for swap, so equal priorities leave in the same order.
type openHeap []openItem

func (h *openHeap) push(it openItem) {
	*h = append(*h, it)
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].priority < q[i].priority) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *openHeap) pop() openItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].priority < q[j1].priority {
			j = j2 // = 2*i + 2  // right child
		}
		if !(q[j].priority < q[i].priority) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	*h = q[:n]
	return it
}
