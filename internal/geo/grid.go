package geo

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Terrain classifies a grid cell. Trees and rocks occlude line of sight and
// block driving; roads are preferred by the path planner.
type Terrain uint8

// Terrain kinds. Ground is the zero value: an empty, drivable, transparent
// cell, which is the desirable default for a cleared worksite.
const (
	Ground Terrain = iota
	Road
	Tree
	Rock
	Water
)

// String returns a short human-readable terrain name.
func (t Terrain) String() string {
	switch t {
	case Ground:
		return "ground"
	case Road:
		return "road"
	case Tree:
		return "tree"
	case Rock:
		return "rock"
	case Water:
		return "water"
	default:
		return fmt.Sprintf("terrain(%d)", uint8(t))
	}
}

// Occludes reports whether the terrain blocks line of sight at ground level.
func (t Terrain) Occludes() bool { return t == Tree || t == Rock }

// Drivable reports whether a ground machine can traverse the terrain.
func (t Terrain) Drivable() bool { return t == Ground || t == Road }

// Grid is a rectangular worksite map of square cells.
type Grid struct {
	cols, rows int
	cellSize   float64 // metres per cell edge
	cells      []Terrain
}

// NewGrid allocates a cols×rows grid of Ground cells with the given cell edge
// length in metres. It returns an error if any dimension is non-positive.
func NewGrid(cols, rows int, cellSize float64) (*Grid, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("grid dimensions must be positive, got %dx%d", cols, rows)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("cell size must be positive, got %g", cellSize)
	}
	// The planner indexes cells with int32.
	if cols > math.MaxInt32/rows {
		return nil, fmt.Errorf("grid of %dx%d cells exceeds %d cells", cols, rows, math.MaxInt32)
	}
	return &Grid{
		cols:     cols,
		rows:     rows,
		cellSize: cellSize,
		cells:    make([]Terrain, cols*rows),
	}, nil
}

// Cols returns the number of columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of rows.
func (g *Grid) Rows() int { return g.rows }

// CellSize returns the cell edge length in metres.
func (g *Grid) CellSize() float64 { return g.cellSize }

// Width returns the grid width in metres.
func (g *Grid) Width() float64 { return float64(g.cols) * g.cellSize }

// Height returns the grid height in metres.
func (g *Grid) Height() float64 { return float64(g.rows) * g.cellSize }

// InBounds reports whether the cell is inside the grid.
func (g *Grid) InBounds(c Cell) bool {
	return c.Col >= 0 && c.Col < g.cols && c.Row >= 0 && c.Row < g.rows
}

// At returns the terrain of cell c. Out-of-bounds cells read as Rock so that
// the site boundary occludes and blocks movement.
func (g *Grid) At(c Cell) Terrain {
	if !g.InBounds(c) {
		return Rock
	}
	return g.cells[c.Row*g.cols+c.Col]
}

// Set assigns the terrain of cell c. Out-of-bounds cells are ignored.
func (g *Grid) Set(c Cell, t Terrain) {
	if !g.InBounds(c) {
		return
	}
	g.cells[c.Row*g.cols+c.Col] = t
}

// CellOf returns the cell containing the world position p. Positions outside
// the grid map to the nearest boundary cell's neighbouring out-of-bounds cell.
func (g *Grid) CellOf(p Vec) Cell {
	return Cell{Col: int(p.X / g.cellSize), Row: int(p.Y / g.cellSize)}
}

// Center returns the world position of the centre of cell c.
func (g *Grid) Center(c Cell) Vec {
	return Vec{
		X: (float64(c.Col) + 0.5) * g.cellSize,
		Y: (float64(c.Row) + 0.5) * g.cellSize,
	}
}

// OccludedAt reports whether the world position p lies in an occluding cell.
func (g *Grid) OccludedAt(p Vec) bool { return g.At(g.CellOf(p)).Occludes() }

// LineOfSight reports whether an unobstructed ground-level sight line exists
// from a to b. The endpoints' own cells never occlude (an observer standing
// next to a tree can still see out). Traversal uses a DDA walk so no
// intersected cell is skipped. This runs once per sensor-target pair per
// control tick, so it walks the cells iteratively instead of materialising
// them.
func (g *Grid) LineOfSight(a, b Vec) bool {
	_, blocked := g.firstOccluder(a, b)
	return !blocked
}

// FirstObstruction returns the first occluding cell strictly between a and b,
// and whether one exists.
func (g *Grid) FirstObstruction(a, b Vec) (Cell, bool) {
	return g.firstOccluder(a, b)
}

// firstOccluder walks the cells of segment a→b and returns the first
// occluding cell strictly between the endpoints' own cells.
func (g *Grid) firstOccluder(a, b Vec) (Cell, bool) {
	start, end := g.CellOf(a), g.CellOf(b)
	w := newGridWalker(g, a, b)
	for {
		c, ok := w.next()
		if !ok {
			return Cell{}, false
		}
		if c == start || c == end {
			continue
		}
		if g.At(c).Occludes() {
			return c, true
		}
	}
}

// gridWalker yields the cells intersected by a segment one at a time — the
// Amanatides–Woo DDA walk as an iterator, so sight-line checks allocate
// nothing. The walker is a value type; it stays on the caller's stack.
type gridWalker struct {
	cur, end     Cell
	stepX, stepY int
	tMaxX, tMaxY float64
	tDeltaX      float64
	tDeltaY      float64
	remaining    int // bound: a segment crosses at most cols+rows+2 boundaries
	started      bool
	done         bool
}

func newGridWalker(g *Grid, a, b Vec) gridWalker {
	w := gridWalker{
		cur:       g.CellOf(a),
		end:       g.CellOf(b),
		stepX:     1,
		stepY:     1,
		remaining: g.cols + g.rows + 2,
	}
	d := b.Sub(a)
	if d.X < 0 {
		w.stepX = -1
	}
	if d.Y < 0 {
		w.stepY = -1
	}

	// tMaxX/tMaxY: parametric distance along the segment to the next vertical/
	// horizontal cell boundary. tDelta: distance between successive boundaries.
	inf := 1e18
	w.tMaxX, w.tDeltaX = inf, inf
	if d.X != 0 {
		var nextX float64
		if w.stepX > 0 {
			nextX = float64(w.cur.Col+1) * g.cellSize
		} else {
			nextX = float64(w.cur.Col) * g.cellSize
		}
		w.tMaxX = (nextX - a.X) / d.X
		w.tDeltaX = g.cellSize / absF(d.X)
	}
	w.tMaxY, w.tDeltaY = inf, inf
	if d.Y != 0 {
		var nextY float64
		if w.stepY > 0 {
			nextY = float64(w.cur.Row+1) * g.cellSize
		} else {
			nextY = float64(w.cur.Row) * g.cellSize
		}
		w.tMaxY = (nextY - a.Y) / d.Y
		w.tDeltaY = g.cellSize / absF(d.Y)
	}
	return w
}

// next returns the next intersected cell. The start cell is yielded first;
// the walk ends after the end cell, the segment's extent, or the boundary
// bound, whichever comes first.
func (w *gridWalker) next() (Cell, bool) {
	if w.done {
		return Cell{}, false
	}
	if !w.started {
		w.started = true
		if w.cur == w.end {
			w.done = true
		}
		return w.cur, true
	}
	for w.remaining > 0 {
		w.remaining--
		if w.tMaxX < w.tMaxY {
			if w.tMaxX > 1 {
				break
			}
			w.cur.Col += w.stepX
			w.tMaxX += w.tDeltaX
		} else {
			if w.tMaxY > 1 {
				break
			}
			w.cur.Row += w.stepY
			w.tMaxY += w.tDeltaY
		}
		if w.cur == w.end {
			w.done = true
		}
		return w.cur, true
	}
	w.done = true
	return Cell{}, false
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ForestOptions configures random forest generation.
type ForestOptions struct {
	// TreeDensity is the fraction of cells occupied by trees, in [0, 1].
	TreeDensity float64
	// RockDensity is the fraction of cells occupied by rocks, in [0, 1].
	RockDensity float64
	// ClearRadius keeps a circle of Ground cells around each clearing centre,
	// in metres. Used for landing areas and harvest sites.
	ClearRadius float64
	// Clearings are kept free of trees and rocks.
	Clearings []Vec
}

// GenerateForest populates the grid with randomly placed trees and rocks,
// preserving the requested clearings. Existing Road cells are preserved.
func (g *Grid) GenerateForest(r *rng.Rand, opts ForestOptions) {
	for row := 0; row < g.rows; row++ {
		for col := 0; col < g.cols; col++ {
			c := C(col, row)
			if g.At(c) == Road {
				continue
			}
			center := g.Center(c)
			inClearing := false
			for _, cl := range opts.Clearings {
				// A centre farther than the radius on either axis is
				// outside the circle, since Hypot(dx, dy) ≥ max(|dx|, |dy|);
				// only the cells in the bounding square pay for Dist.
				if absF(center.X-cl.X) > opts.ClearRadius || absF(center.Y-cl.Y) > opts.ClearRadius {
					continue
				}
				if center.Dist(cl) <= opts.ClearRadius {
					inClearing = true
					break
				}
			}
			if inClearing {
				g.Set(c, Ground)
				continue
			}
			switch {
			case r.Bool(opts.TreeDensity):
				g.Set(c, Tree)
			case r.Bool(opts.RockDensity):
				g.Set(c, Rock)
			default:
				g.Set(c, Ground)
			}
		}
	}
}

// CarveRoad sets all cells along segment a→b to Road, making a drivable,
// non-occluding strip.
func (g *Grid) CarveRoad(a, b Vec) {
	w := newGridWalker(g, a, b)
	for c, ok := w.next(); ok; c, ok = w.next() {
		g.Set(c, Road)
	}
}

// CountTerrain returns the number of cells with terrain t.
func (g *Grid) CountTerrain(t Terrain) int {
	n := 0
	for _, c := range g.cells {
		if c == t {
			n++
		}
	}
	return n
}
