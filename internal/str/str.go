// Package str implements Sort-Tile-Recursive packing (Leutenegger, Lopez
// & Edgington, ICDE'97), the bulk-loading strategy the TOUCH paper uses
// both to group dataset A into buckets (leaf nodes) and to build the
// upper levels of its hierarchical partitioning tree, and that the
// baseline R-tree uses for bulk loading.
//
// STR sorts items by the first dimension of their center, slices the
// sequence into ⌈P^(1/D)⌉ vertical slabs, and recursively tiles each slab
// on the remaining dimensions, producing P groups of at most groupSize
// items with small, mostly non-overlapping MBRs.
package str

import (
	"cmp"
	"math"
	"slices"

	"touch/internal/geom"
)

// keyed pairs an item's index with its precomputed sort point.
// Extracting the center once per item instead of twice per comparison
// keeps the sort — the dominant cost of tree building — working on a
// flat key it can compare without calling back into the caller. The
// record holds the index, not the item, so it stays 32 bytes and the
// sort's swaps stay cheap whatever the item's size; the items are
// gathered once, when each group is materialized.
type keyed struct {
	c geom.Point
	i int32
}

// Pack groups items into tiles of at most groupSize elements using STR.
// The center function extracts the point used for sorting (typically the
// MBR center); it is called exactly once per item. The input slice is
// not modified. groupSize must be >= 1, and len(items) must fit in an
// int32.
//
// Every input item appears in exactly one output group, and every group
// except possibly the last few is full.
func Pack[T any](items []T, center func(T) geom.Point, groupSize int) [][]T {
	if groupSize < 1 {
		panic("str: groupSize must be >= 1")
	}
	if len(items) > math.MaxInt32 {
		panic("str: more than MaxInt32 items")
	}
	if len(items) == 0 {
		return nil
	}
	work := make([]keyed, len(items))
	for i, it := range items {
		work[i] = keyed{c: center(it), i: int32(i)}
	}
	out := make([][]T, 0, (len(items)+groupSize-1)/groupSize)
	return pack(items, work, groupSize, 0, out)
}

// pack recursively tiles work on dimensions dim..Dims-1, appending the
// resulting groups of items to out.
func pack[T any](items []T, work []keyed, groupSize, dim int, out [][]T) [][]T {
	n := len(work)
	if n == 0 {
		return out
	}
	if n <= groupSize {
		return append(out, extract(items, work))
	}
	slices.SortFunc(work, func(a, b keyed) int {
		return cmp.Compare(a.c[dim], b.c[dim])
	})
	if dim == geom.Dims-1 {
		// Last dimension: chop the sorted run into consecutive groups.
		for i := 0; i < n; i += groupSize {
			end := i + groupSize
			if end > n {
				end = n
			}
			out = append(out, extract(items, work[i:end]))
		}
		return out
	}
	// P = number of groups still to produce; S = slabs in this dimension.
	p := (n + groupSize - 1) / groupSize
	remaining := geom.Dims - dim
	s := int(math.Ceil(math.Pow(float64(p), 1/float64(remaining))))
	if s < 1 {
		s = 1
	}
	slabSize := (n + s - 1) / s
	for i := 0; i < n; i += slabSize {
		end := i + slabSize
		if end > n {
			end = n
		}
		out = pack(items, work[i:end:end], groupSize, dim+1, out)
	}
	return out
}

// extract materializes one group, gathering the items ks refers to.
func extract[T any](items []T, ks []keyed) []T {
	g := make([]T, len(ks))
	for j := range ks {
		g[j] = items[ks[j].i]
	}
	return g
}

// PackObjects is Pack specialized to spatial objects, grouping by MBR
// center.
func PackObjects(objs []geom.Object, groupSize int) [][]geom.Object {
	return Pack(objs, func(o geom.Object) geom.Point { return o.Box.Center() }, groupSize)
}

// PartitionCount returns the number of groups Pack will produce for n
// items with the given group size: ⌈n / groupSize⌉.
func PartitionCount(n, groupSize int) int {
	if groupSize < 1 {
		panic("str: groupSize must be >= 1")
	}
	return (n + groupSize - 1) / groupSize
}

// GroupSizeFor returns the bucket size needed to split n items into (at
// most) the requested number of partitions: ⌈n / partitions⌉, minimum 1.
// This converts the paper's "number of partitions" TOUCH parameter
// (default 1024) into an STR group size.
func GroupSizeFor(n, partitions int) int {
	if partitions < 1 {
		panic("str: partitions must be >= 1")
	}
	g := (n + partitions - 1) / partitions
	if g < 1 {
		g = 1
	}
	return g
}
