package str

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"touch/internal/datagen"
	"touch/internal/geom"
)

func center(o geom.Object) geom.Point { return o.Box.Center() }

func TestPackEmpty(t *testing.T) {
	if got := PackObjects(nil, 4); got != nil {
		t.Fatalf("PackObjects(nil) = %v, want nil", got)
	}
}

func TestPackSingleGroup(t *testing.T) {
	ds := datagen.UniformSet(5, 1)
	groups := PackObjects(ds, 10)
	if len(groups) != 1 || len(groups[0]) != 5 {
		t.Fatalf("got %d groups, want 1 full group", len(groups))
	}
}

func TestPackGroupSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("groupSize 0 must panic")
		}
	}()
	PackObjects(datagen.UniformSet(3, 1), 0)
}

func TestPackCoversEveryObjectExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1000, 1023, 1024, 1025} {
		ds := datagen.UniformSet(n, int64(n))
		groups := PackObjects(ds, 16)
		seen := make(map[geom.ID]int)
		for _, g := range groups {
			for _, o := range g {
				seen[o.ID]++
			}
		}
		if len(seen) != n {
			t.Fatalf("n=%d: %d distinct objects in groups", n, len(seen))
		}
		for id, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d: object %d appears %d times", n, id, k)
			}
		}
	}
}

func TestPackGroupSizes(t *testing.T) {
	ds := datagen.UniformSet(1000, 2)
	groups := PackObjects(ds, 16)
	want := PartitionCount(1000, 16)
	// STR slab rounding can produce slightly more groups than ⌈n/g⌉ but
	// never more than one extra per slab chain; verify the bound loosely
	// and the cap strictly.
	if len(groups) < want {
		t.Fatalf("got %d groups, expected at least %d", len(groups), want)
	}
	for i, g := range groups {
		if len(g) == 0 {
			t.Fatalf("group %d empty", i)
		}
		if len(g) > 16 {
			t.Fatalf("group %d has %d > 16 objects", i, len(g))
		}
	}
}

func TestPackDoesNotMutateInput(t *testing.T) {
	ds := datagen.UniformSet(100, 3)
	orig := make(geom.Dataset, len(ds))
	copy(orig, ds)
	PackObjects(ds, 8)
	for i := range ds {
		if ds[i] != orig[i] {
			t.Fatal("Pack reordered the caller's slice")
		}
	}
}

// TestPackSpatialQuality verifies the point of STR: grouping spatially
// close objects. The summed group-MBR volume must be far below the
// volume of random grouping.
func TestPackSpatialQuality(t *testing.T) {
	ds := datagen.UniformSet(2000, 4)
	groups := PackObjects(ds, 20)
	strVol := totalGroupVolume(groups)

	rng := rand.New(rand.NewSource(4))
	shuffled := make(geom.Dataset, len(ds))
	copy(shuffled, ds)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var random [][]geom.Object
	for i := 0; i < len(shuffled); i += 20 {
		end := i + 20
		if end > len(shuffled) {
			end = len(shuffled)
		}
		random = append(random, shuffled[i:end])
	}
	randVol := totalGroupVolume(random)
	if strVol*10 > randVol {
		t.Fatalf("STR volume %g not clearly better than random %g", strVol, randVol)
	}
}

func totalGroupVolume(groups [][]geom.Object) float64 {
	total := 0.0
	for _, g := range groups {
		mbr := geom.EmptyBox()
		for _, o := range g {
			mbr = mbr.Union(o.Box)
		}
		total += mbr.Volume()
	}
	return total
}

func TestGroupSizeFor(t *testing.T) {
	cases := []struct{ n, partitions, want int }{
		{1000, 10, 100},
		{1001, 10, 101},
		{5, 10, 1},
		{0, 10, 1},
		{1024, 1024, 1},
		{2048, 1024, 2},
	}
	for _, tc := range cases {
		if got := GroupSizeFor(tc.n, tc.partitions); got != tc.want {
			t.Errorf("GroupSizeFor(%d,%d) = %d, want %d", tc.n, tc.partitions, got, tc.want)
		}
	}
}

func TestGroupSizeForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("partitions 0 must panic")
		}
	}()
	GroupSizeFor(10, 0)
}

func TestPartitionCount(t *testing.T) {
	if PartitionCount(10, 3) != 4 || PartitionCount(9, 3) != 3 || PartitionCount(0, 3) != 0 {
		t.Fatal("PartitionCount arithmetic wrong")
	}
}

func TestPropPackPreservesMultiset(t *testing.T) {
	f := func(seed int64, rawN uint16, rawG uint8) bool {
		n := int(rawN%500) + 1
		g := int(rawG%32) + 1
		ds := datagen.UniformSet(n, seed)
		groups := Pack(ds, center, g)
		total := 0
		for _, grp := range groups {
			total += len(grp)
			if len(grp) > g {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPackGeneric(t *testing.T) {
	// Pack over a non-object type: ints positioned on a line.
	items := []int{9, 1, 8, 2, 7, 3, 6, 4, 5}
	groups := Pack(items, func(v int) geom.Point { return geom.Point{float64(v), 0, 0} }, 3)
	// For items on a line, the concatenated groups must be the sorted
	// order (contiguous tiles), each at most groupSize long. STR's slab
	// rounding may produce more than ⌈n/g⌉ groups.
	var flat []int
	for _, g := range groups {
		if len(g) == 0 || len(g) > 3 {
			t.Fatalf("bad group size %d", len(g))
		}
		flat = append(flat, g...)
	}
	if len(flat) != len(items) {
		t.Fatalf("flattened %d items, want %d", len(flat), len(items))
	}
	for i := range flat {
		if flat[i] != i+1 {
			t.Fatalf("groups not in sorted contiguous order: %v", groups)
		}
	}
}

// refPack is the reference STR packer: it sorts full (center, item)
// records, the layout Pack used before it sorted (center, index)
// records. With distinct centers along every dimension each sort has a
// unique outcome, so Pack must produce exactly its groups, in order.
func refPack[T any](items []T, center func(T) geom.Point, groupSize int) [][]T {
	type rec struct {
		c    geom.Point
		item T
	}
	work := make([]rec, len(items))
	for i, it := range items {
		work[i] = rec{center(it), it}
	}
	var out [][]T
	var tile func(work []rec, dim int)
	tile = func(work []rec, dim int) {
		n := len(work)
		if n == 0 {
			return
		}
		group := func(rs []rec) {
			g := make([]T, len(rs))
			for i := range rs {
				g[i] = rs[i].item
			}
			out = append(out, g)
		}
		if n <= groupSize {
			group(work)
			return
		}
		slices.SortFunc(work, func(a, b rec) int { return cmp.Compare(a.c[dim], b.c[dim]) })
		if dim == geom.Dims-1 {
			for i := 0; i < n; i += groupSize {
				group(work[i:min(i+groupSize, n)])
			}
			return
		}
		p := (n + groupSize - 1) / groupSize
		s := max(int(math.Ceil(math.Pow(float64(p), 1/float64(geom.Dims-dim)))), 1)
		slab := (n + s - 1) / s
		for i := 0; i < n; i += slab {
			tile(work[i:min(i+slab, n)], dim+1)
		}
	}
	tile(work, 0)
	return out
}

// distinctCenters reports whether no two items share a center
// coordinate along any dimension.
func distinctCenters[T any](items []T, center func(T) geom.Point) bool {
	for d := 0; d < geom.Dims; d++ {
		seen := make(map[float64]bool, len(items))
		for _, it := range items {
			v := center(it)[d]
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

func TestPackMatchesFullRecordReference(t *testing.T) {
	type node struct {
		id  int
		mbr geom.Box
	}
	nodeCenter := func(n *node) geom.Point { return n.mbr.Center() }
	for _, n := range []int{1, 9, 100, 1000, 4097} {
		for _, g := range []int{1, 3, 16, 100} {
			ds := datagen.UniformSet(n, int64(n+g))
			if !distinctCenters(ds, center) {
				t.Fatalf("n=%d: premise: centers not distinct", n)
			}
			if got, want := Pack(ds, center, g), refPack(ds, center, g); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("objects n=%d g=%d: Pack groups differ from the reference", n, g)
			}
			nodes := make([]*node, len(ds))
			for i, o := range ds {
				nodes[i] = &node{id: i, mbr: o.Box}
			}
			if got, want := Pack(nodes, nodeCenter, g), refPack(nodes, nodeCenter, g); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("nodes n=%d g=%d: Pack groups differ from the reference", n, g)
			}
		}
	}
}

func TestPackIdenticalCentersCoversEveryItemOnce(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	same := func(int) geom.Point { return geom.Point{5, 5, 5} }
	seen := make([]int, len(items))
	for _, grp := range Pack(items, same, 7) {
		if len(grp) == 0 || len(grp) > 7 {
			t.Fatalf("bad group size %d", len(grp))
		}
		for _, v := range grp {
			seen[v]++
		}
	}
	for v, k := range seen {
		if k != 1 {
			t.Fatalf("item %d appears %d times", v, k)
		}
	}
}
