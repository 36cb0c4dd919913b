package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"syscall"

	"touch"
)

// The benchmark owns its input generator, so a change to the program's
// own generators can never change what the benchmark measures. Every
// stream draws from a PCG keyed by (seed, stream id).
const (
	space = 1000.0 // side of the cubic universe
)

// Stream ids: one per generated input, so adding an input never shifts
// another.
const (
	streamA uint64 = iota + 1
	streamB
	streamData
	streamReads
	streamWrites
	streamFinal
)

func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// box returns a box centred on c with sides uniform in (0, maxSide].
func box(g *rand.Rand, c touch.Point, maxSide float64) touch.Box {
	var b touch.Box
	for d := 0; d < 3; d++ {
		half := (1 - g.Float64()) * maxSide / 2
		b.Min[d], b.Max[d] = c[d]-half, c[d]+half
	}
	return b
}

func clamp(v float64) float64 { return min(max(v, 0), space) }

func uniformBoxes(g *rand.Rand, n int) []touch.Box {
	out := make([]touch.Box, n)
	for i := range out {
		out[i] = box(g, touch.Point{g.Float64() * space, g.Float64() * space, g.Float64() * space}, 1)
	}
	return out
}

// gaussianBoxes places centres around the middle of the universe with
// σ = 250 per dimension.
func gaussianBoxes(g *rand.Rand, n int) []touch.Box {
	out := make([]touch.Box, n)
	for i := range out {
		var c touch.Point
		for d := range c {
			c[d] = clamp(g.NormFloat64()*250 + space/2)
		}
		out[i] = box(g, c, 1)
	}
	return out
}

// clusteredBoxes scatters objects around 125 centres with σ = 22. The
// centres are jittered on a 5×5×5 grid — one uniformly placed centre per
// grid cell — so that how much of the data a query box covers varies
// little from seed to seed.
func clusteredBoxes(g *rand.Rand, n int) []touch.Box {
	const perSide = 5
	cell := space / perSide
	var centers []touch.Point
	for x := 0; x < perSide; x++ {
		for y := 0; y < perSide; y++ {
			for z := 0; z < perSide; z++ {
				centers = append(centers, touch.Point{
					(float64(x) + g.Float64()) * cell,
					(float64(y) + g.Float64()) * cell,
					(float64(z) + g.Float64()) * cell,
				})
			}
		}
	}
	out := make([]touch.Box, n)
	for i := range out {
		ctr := centers[g.IntN(len(centers))]
		var c touch.Point
		for d := range c {
			c[d] = clamp(g.NormFloat64()*22 + ctr[d])
		}
		out[i] = box(g, c, 1)
	}
	return out
}

// encode renders boxes in the text format touch.ReadDataset parses,
// with shortest round-trip floats so the parsed boxes equal the
// generated ones bit for bit.
func encode(boxes []touch.Box) []byte {
	buf := make([]byte, 0, len(boxes)*64)
	for _, b := range boxes {
		for i, v := range [6]float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]} {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// parse is the program's ingestion step: the text input becomes a
// dataset with IDs 0..n-1 in input order.
func parse(data []byte, want int) (touch.Dataset, error) {
	ds, err := touch.ReadDataset(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(ds) != want {
		return nil, fmt.Errorf("parsed %d objects, want %d", len(ds), want)
	}
	return ds, nil
}

// query is one read of the mixed stream: a range box, or a kNN point.
type query struct {
	knn bool
	box touch.Box
	pt  touch.Point
	k   int
}

// readStream draws n reads: ¾ range queries with boxes up to 300 units
// a side, ¼ kNN with k in 1..24, both centred uniformly in the universe.
func readStream(g *rand.Rand, n int) []query {
	out := make([]query, n)
	for i := range out {
		c := touch.Point{g.Float64() * space, g.Float64() * space, g.Float64() * space}
		if g.IntN(4) == 0 {
			out[i] = query{knn: true, pt: c, k: 1 + g.IntN(24)}
		} else {
			out[i] = query{box: box(g, c, 300)}
		}
	}
	return out
}

// --- brute-force oracles ------------------------------------------------

// objects numbers generated boxes 0..n-1, as parsing the input does.
func objects(boxes []touch.Box) touch.Dataset {
	out := make(touch.Dataset, len(boxes))
	for i, b := range boxes {
		out[i] = touch.Object{ID: touch.ID(i), Box: b}
	}
	return out
}

func intersects(a, b touch.Box) bool {
	for d := 0; d < 3; d++ {
		if a.Min[d] > b.Max[d] || b.Min[d] > a.Max[d] {
			return false
		}
	}
	return true
}

// pointDist is the minimum Euclidean distance from p to b, computed
// exactly as the engine documents it.
func pointDist(b touch.Box, p touch.Point) float64 {
	sum := 0.0
	for d := 0; d < 3; d++ {
		gap := math.Max(b.Min[d]-p[d], p[d]-b.Max[d])
		if gap > 0 {
			sum += gap * gap
		}
	}
	return math.Sqrt(sum)
}

func bruteRange(objs touch.Dataset, q touch.Box) []touch.ID {
	var ids []touch.ID
	for _, o := range objs {
		if intersects(o.Box, q) {
			ids = append(ids, o.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// bruteKNN returns the k nearest objects ordered by (distance, ID).
func bruteKNN(objs touch.Dataset, p touch.Point, k int) []touch.Neighbor {
	best := make([]touch.Neighbor, 0, k+1)
	less := func(a, b touch.Neighbor) bool {
		return a.Distance < b.Distance || (a.Distance == b.Distance && a.ID < b.ID)
	}
	for _, o := range objs {
		n := touch.Neighbor{ID: o.ID, Distance: pointDist(o.Box, p)}
		if len(best) == k && !less(n, best[k-1]) {
			continue
		}
		i := len(best)
		best = append(best, n)
		for i > 0 && less(n, best[i-1]) {
			best[i] = best[i-1]
			i--
		}
		best[i] = n
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkAnswer compares one read's answer with the oracle's.
func checkAnswer(objs touch.Dataset, q query, ids []touch.ID, nbrs []touch.Neighbor) error {
	if q.knn {
		want := bruteKNN(objs, q.pt, q.k)
		if !slices.Equal(want, nbrs) {
			return fmt.Errorf("knn(%v, k=%d): got %v, want %v", q.pt, q.k, nbrs, want)
		}
		return nil
	}
	want := bruteRange(objs, q.box)
	if !slices.Equal(want, ids) {
		return fmt.Errorf("range(%v): got %d ids, want %d", q.box, len(ids), len(want))
	}
	return nil
}

// maxRSSKiB is the peak resident set of an exited child, in KiB.
func maxRSSKiB(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}
