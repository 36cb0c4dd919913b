package core

import (
	"slices"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/grid"
	"touch/internal/stats"
)

// mapGridJoin is the seed implementation of Algorithm 4 — B replicas
// hashed into a map[int64][]int32 — kept here as the reference the CSR
// grid must not diverge from: identical Comparisons, Replicas, occupied
// cell count and result set per node.
func (t *Tree) mapGridJoin(n *Node, bs []geom.Object, postDedup bool, c *stats.Counters, sink stats.Sink) int64 {
	g := t.localGrid(n, bs)
	cells := make(map[int64][]int32)
	for i := range bs {
		lo, hi := g.Range(bs[i].Box)
		grid.ForEachCell(lo, hi, func(cc grid.Coords) {
			k := g.Key(cc)
			cells[k] = append(cells[k], int32(i))
			c.Replicas++
		})
	}
	as := t.subtreeA(n)
	for ai := range as {
		a := &as[ai]
		lo, hi := g.Range(a.Box)
		grid.ForEachCell(lo, hi, func(cc grid.Coords) {
			for _, bi := range cells[g.Key(cc)] {
				b := &bs[bi]
				if postDedup {
					c.Comparisons++
					if a.Box.Intersects(b.Box) && g.RefCell(&a.Box, &b.Box) == cc {
						c.Results++
						sink.Emit(a.ID, b.ID)
					}
					continue
				}
				if g.RefCell(&a.Box, &b.Box) != cc {
					continue
				}
				c.Comparisons++
				if a.Box.Intersects(b.Box) {
					c.Results++
					sink.Emit(a.ID, b.ID)
				}
			}
		})
	}
	return int64(len(cells))
}

// runMapReference executes build + probe assign + map-grid join,
// returning counters, sorted pairs and the total occupied-cell count.
func runMapReference(a, b geom.Dataset, cfg Config, postDedup bool) (stats.Counters, []geom.Pair, int64) {
	var c stats.Counters
	sink := &stats.CollectSink{}
	t := Build(a, cfg)
	p := t.NewProbe()
	p.Assign(b, nil, &c)
	occupied := int64(0)
	for _, id := range p.active {
		occupied += t.mapGridJoin(t.nodes[id], p.nodeB(id), postDedup, &c, sink)
	}
	return c, sortedPairs(sink.Pairs), occupied
}

// TestCSRMatchesMapGrid: the CSR grid must count exactly the same
// Comparisons and Replicas as the seed's map grid, in both dedup modes,
// across distributions and grid shapes (including configs that force the
// sparse CSR path via coarse node MBRs).
func TestCSRMatchesMapGrid(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		a, b geom.Dataset
	}{
		{
			name: "uniform-default",
			cfg:  Config{},
			a:    datagen.UniformSet(700, 501).Expand(6),
			b:    datagen.UniformSet(2000, 502),
		},
		{
			name: "clustered-coarse",
			cfg:  Config{Partitions: 8, Fanout: 2},
			a:    datagen.ClusteredSet(500, 503).Expand(3),
			b:    datagen.ClusteredSet(1500, 504),
		},
		{
			name: "gaussian-highres",
			cfg:  Config{LocalCells: 200, CellFactor: 0.5},
			a:    datagen.GaussianSet(400, 505).Expand(4),
			b:    datagen.GaussianSet(1200, 506),
		},
	} {
		for _, postDedup := range []bool{false, true} {
			cfg := tc.cfg
			if postDedup {
				cfg.LocalJoin = LocalJoinGridPostDedup
			}
			refC, refPairs, refOccupied := runMapReference(tc.a, tc.b, cfg, postDedup)

			var c stats.Counters
			sink := &stats.CollectSink{}
			tr := Build(tc.a, cfg)
			p := tr.NewProbe()
			p.Assign(tc.b, nil, &c)
			ws := &joinScratch{}
			occupied := int64(0)
			for _, id := range p.active {
				n := tr.nodes[id]
				bs := p.nodeB(id)
				g := tr.localGrid(n, bs)
				csr := ws.buildCSR(g, bs)
				occupied += csr.occupied
				c.Replicas += csr.replicas
				tr.gridProbe(g, csr, bs, tr.subtreeA(n), nil, &c, sink)
			}

			if c.Comparisons != refC.Comparisons {
				t.Errorf("%s postDedup=%v: Comparisons %d, map grid %d",
					tc.name, postDedup, c.Comparisons, refC.Comparisons)
			}
			if c.Replicas != refC.Replicas {
				t.Errorf("%s postDedup=%v: Replicas %d, map grid %d",
					tc.name, postDedup, c.Replicas, refC.Replicas)
			}
			if occupied != refOccupied {
				t.Errorf("%s postDedup=%v: occupied cells %d, map grid %d",
					tc.name, postDedup, occupied, refOccupied)
			}
			if !slices.Equal(sortedPairs(sink.Pairs), refPairs) {
				t.Errorf("%s postDedup=%v: pair set differs from map grid", tc.name, postDedup)
			}
		}
	}
}

// TestCSRSparsePath forces the sparse (sort-based) CSR build by making
// the cell space vastly exceed the replica count, and cross-checks it
// against the dense build on the same inputs.
func TestCSRSparsePath(t *testing.T) {
	universe := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1000, 1000, 1000})
	g := grid.New(universe, 120) // 1.7M cells, above any dense slack for a handful of replicas
	bs := geom.Dataset{
		{ID: 1, Box: geom.NewBox(geom.Point{1, 1, 1}, geom.Point{30, 30, 30})},
		{ID: 2, Box: geom.NewBox(geom.Point{25, 25, 25}, geom.Point{40, 28, 28})},
		{ID: 3, Box: geom.NewBox(geom.Point{990, 990, 990}, geom.Point{999, 999, 999})},
	}
	ws := &joinScratch{}
	sparse := ws.buildCSR(g, bs)
	if sparse.dense {
		t.Fatal("premise: expected the sparse path")
	}
	// Dense reference on a fresh scratch with the slack checks bypassed
	// (buildDense consumes the ranges its buildCSR pass would cache).
	ws2 := &joinScratch{}
	for i := range bs {
		lo, hi := g.Range(bs[i].Box)
		ws2.ranges = append(ws2.ranges, cellRange{lo, hi})
	}
	ref := ws2.buildDense(g, g.Cells(), sparse.replicas)
	if sparse.replicas != ref.replicas || sparse.occupied != ref.occupied {
		t.Fatalf("sparse/dense disagree: replicas %d/%d occupied %d/%d",
			sparse.replicas, ref.replicas, sparse.occupied, ref.occupied)
	}
	lo, hi := grid.Coords{0, 0, 0}, grid.Coords{g.Res[0] - 1, g.Res[1] - 1, g.Res[2] - 1}
	g.ForEachKey(lo, hi, func(k int64) {
		s0, s1 := sparse.run(k)
		r0, r1 := ref.run(k)
		if !slices.Equal(sparse.ids[s0:s1], ref.ids[r0:r1]) || !slices.Equal(sparse.starts[s0:s1], ref.starts[r0:r1]) {
			t.Fatalf("cell %d: sparse run %v/%v, dense run %v/%v", k,
				sparse.ids[s0:s1], sparse.starts[s0:s1], ref.ids[r0:r1], ref.starts[r0:r1])
		}
	})
}
