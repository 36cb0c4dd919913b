package core

import (
	"cmp"
	"slices"

	"touch/internal/geom"
	"touch/internal/grid"
	"touch/internal/stats"
	"touch/internal/sweep"
)

// LocalJoinKind selects how each node's B objects are joined with the A
// objects of its descendant leaves — the design choice behind the
// paper's Algorithm 4, exposed for ablation studies.
type LocalJoinKind int

const (
	// LocalJoinGrid is the paper's Algorithm 4: an equi-width grid over
	// the node MBR, with the canonical-cell rule testing each candidate
	// pair exactly once *before* the intersection test. The default.
	LocalJoinGrid LocalJoinKind = iota
	// LocalJoinGridPostDedup is Algorithm 4 as the paper evaluates it:
	// pairs sharing several cells are tested in every one of them and
	// duplicates are discarded only after a positive test (reference
	// point method). Comparisons are inflated accordingly — this mode
	// quantifies what the pre-test rule saves.
	LocalJoinGridPostDedup
	// LocalJoinSweep replaces the grid with a plane-sweep between the
	// node's B objects and the subtree's A objects (the local join the
	// paper's *other* baselines use).
	LocalJoinSweep
	// LocalJoinNested compares every B object of the node against every
	// A object below it — Algorithm 1's literal join(in.entities,
	// leaf.entities) without any space partitioning.
	LocalJoinNested
)

// String implements fmt.Stringer.
func (k LocalJoinKind) String() string {
	switch k {
	case LocalJoinGrid:
		return "grid"
	case LocalJoinGridPostDedup:
		return "grid-postdedup"
	case LocalJoinSweep:
		return "sweep"
	case LocalJoinNested:
		return "nested"
	default:
		return "unknown"
	}
}

// localJoin dispatches one node's local join according to the
// configuration. bs is the probe's B segment for the node and ws the
// calling worker's scratch arena; the tree itself is only read. tk is
// the worker's cancellation ticker, threaded through every node the
// worker processes so the checkpoints amortize across nodes.
func (t *Tree) localJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	switch t.cfg.LocalJoin {
	case LocalJoinGrid, LocalJoinGridPostDedup:
		t.gridJoin(n, bs, tk, c, sink, ws)
	case LocalJoinSweep:
		t.sweepJoin(n, bs, tk, c, sink, ws)
	case LocalJoinNested:
		t.nestedJoin(n, bs, tk, c, sink)
	default:
		panic("core: unknown local join kind")
	}
}

// gridJoin implements Algorithm 4: the node's B objects are hashed into
// an equi-width grid over the node's MBR (a flat CSR layout, see
// csr.go), and every A object in the node's arena range probes the
// cells it overlaps. Depending on the configuration, duplicate
// candidates are skipped before the test (canonical-cell rule) or
// discarded after it (reference-point method).
func (t *Tree) gridJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	g := t.localGrid(n, bs)

	csr := ws.buildCSR(g, bs)
	c.Replicas += csr.replicas
	// Transient per-node grid footprint: remember the peak; Join adds it
	// on top of the static structure bytes.
	gridBytes := csr.occupied*stats.BytesPerCell + csr.replicas*stats.BytesPerRef
	if gridBytes > ws.peakBytes {
		ws.peakBytes = gridBytes
	}

	t.gridProbe(g, csr, bs, t.subtreeA(n), tk, c, sink)
}

// gridProbe runs the probe side of Algorithm 4: every A object in as
// probes the cells it overlaps in the built CSR grid. The grid and csr
// are read-only here, so joinParallel can fan the A objects of one huge
// node out across workers, each probing its own chunk. The worker's
// ticker is charged one unit per candidate run entry, so a cancelled
// join aborts within CheckEvery comparisons plus one cell run.
//
// Duplicates are decided on integer cell coordinates, with no float
// arithmetic and no B object access per candidate. The reference cell
// of a pair is the cell of the componentwise max of the two minimum
// corners (Grid.RefCell). The point-to-cell map is monotone
// non-decreasing in every dimension (a subtraction, a division by a
// positive side, truncation, then a clamp), and a monotone map commutes
// with max. So the reference cell is, bit for bit, the componentwise
// max of the two boxes' lower cell coordinates: max(lo, bLo). In a cell
// c that both boxes overlap, lo <= c and bLo <= c, so max(lo, bLo) == c
// iff lo == c or bLo == c. The pair's reference cell is therefore the
// current one iff, in every dimension, A or B starts there: A's start
// bits come from Grid.Range, B's from the start bits buildCSR stored
// with each replica.
func (t *Tree) gridProbe(g *grid.Grid, csr *csrGrid, bs, as []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	postDedup := t.cfg.LocalJoin == LocalJoinGridPostDedup
	r1, r2 := int64(g.Res[1]), int64(g.Res[2])
	const allDims = 1<<geom.Dims - 1
	for ai := range as {
		if tk.Stopped() {
			return
		}
		a := &as[ai]
		lo, hi := g.Range(a.Box)
		// The cell loop is inlined rather than run through
		// Grid.ForEachKey: the callback costs more than the loop body.
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				sxy := startBit(x, lo[0], 0) | startBit(y, lo[1], 1)
				base := (int64(x)*r1 + int64(y)) * r2
				for z := lo[2]; z <= hi[2]; z++ {
					start, end := csr.run(base + int64(z))
					if start == end {
						continue
					}
					if tk.TickN(int(end - start)) {
						return
					}
					// need holds the dimensions A does not start in:
					// B must start in all of them.
					need := allDims &^ (sxy | startBit(z, lo[2], 2))
					for j := start; j < end; j++ {
						ref := csr.starts[j]&need == need
						// Canonical-cell rule: test the pair only in its
						// reference cell. Paper mode (post-dedup) pays for
						// the test in every shared cell and keeps the hit
						// only in the reference cell.
						if !ref && !postDedup {
							continue
						}
						b := &bs[csr.ids[j]]
						c.Comparisons++
						if a.Box.Intersects(b.Box) && ref {
							c.Results++
							sink.Emit(a.ID, b.ID)
						}
					}
				}
			}
		}
	}
}

// localGrid sizes the grid for one node: the cell side stays
// considerably larger than the average object (§5.2.2) — of either
// dataset, since probe objects (A, possibly ε-expanded) that span many
// cells would multiply grid lookups — and the resolution is capped at
// LocalCells per dimension.
func (t *Tree) localGrid(n *Node, bs []geom.Object) *grid.Grid {
	avg := geom.Dataset(bs).AverageExtent()
	if n.aCount() > 0 {
		if avgA := n.extSumA / float64(n.aCount()); avgA > avg {
			avg = avgA
		}
	}
	side := avg * t.cfg.CellFactor
	if side <= 0 {
		// Degenerate (point) objects: fall back to the resolution cap.
		maxExt := 0.0
		for d := 0; d < geom.Dims; d++ {
			if e := n.MBR.Extent(d); e > maxExt {
				maxExt = e
			}
		}
		side = maxExt / float64(t.cfg.LocalCells)
		if side <= 0 {
			side = 1
		}
	}
	return grid.NewCellSize(n.MBR, side, t.cfg.LocalCells)
}

// sweepJoin plane-sweeps the subtree's A objects against the node's B
// objects. The A objects are copied into worker scratch before sorting
// (the arena must stay in leaf order); the B segment is private to the
// probe and rewritten by its next Assign, so it is sorted in place.
func (t *Tree) sweepJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink, ws *joinScratch) {
	byXMin := func(a, b geom.Object) int { return cmp.Compare(a.Box.Min[0], b.Box.Min[0]) }
	as := append(ws.aObjs[:0], t.subtreeA(n)...)
	ws.aObjs = as
	slices.SortFunc(as, byXMin)
	slices.SortFunc(bs, byXMin)
	if bytes := int64(len(as)+len(bs)) * stats.BytesPerObject; bytes > ws.peakBytes {
		ws.peakBytes = bytes
	}
	sweep.JoinSorted(as, bs, tk, c, func(x, y *geom.Object) {
		c.Results++
		sink.Emit(x.ID, y.ID)
	})
}

// nestedJoin is the unpartitioned local join: all pairs.
func (t *Tree) nestedJoin(n *Node, bs []geom.Object, tk *stats.Ticker, c *stats.Counters, sink stats.Sink) {
	as := t.subtreeA(n)
	for ai := range as {
		a := &as[ai]
		for i := range bs {
			if tk.Tick() {
				return
			}
			c.Comparisons++
			if a.Box.Intersects(bs[i].Box) {
				c.Results++
				sink.Emit(a.ID, bs[i].ID)
			}
		}
	}
}
