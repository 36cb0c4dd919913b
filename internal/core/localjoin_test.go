package core

import (
	"testing"

	"touch/internal/datagen"
	"touch/internal/stats"
)

func TestAllLocalJoinKindsAgree(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Clustered} {
		a := datagen.Generate(datagen.DefaultConfig(dist, 500, 301)).Expand(7)
		b := datagen.Generate(datagen.DefaultConfig(dist, 1200, 302))
		want := oracle(a, b)
		for _, kind := range []LocalJoinKind{
			LocalJoinGrid, LocalJoinGridPostDedup, LocalJoinSweep, LocalJoinNested,
		} {
			got, c := run(t, a, b, Config{LocalJoin: kind})
			verifyLemmas(t, kind.String(), got, want)
			if c.Results != int64(len(got)) {
				t.Fatalf("%s: Results=%d pairs=%d", kind, c.Results, len(got))
			}
		}
	}
}

func TestPostDedupComparesAtLeastAsMuch(t *testing.T) {
	// The post-test reference-point mode (the paper's) pays for every
	// shared cell; the canonical-cell mode tests once. On a workload
	// with fat objects the difference must be visible.
	a := datagen.UniformSet(1000, 311).Expand(10)
	b := datagen.UniformSet(3000, 312)
	_, pre := run(t, a, b, Config{LocalJoin: LocalJoinGrid})
	_, post := run(t, a, b, Config{LocalJoin: LocalJoinGridPostDedup})
	if post.Comparisons < pre.Comparisons {
		t.Fatalf("post-dedup (%d) must not compare less than pre-dedup (%d)",
			post.Comparisons, pre.Comparisons)
	}
}

func TestNestedLocalJoinComparesMost(t *testing.T) {
	// Without any space partitioning, each node's join is all-pairs —
	// the upper bound on local-join comparisons.
	a := datagen.GaussianSet(800, 321).Expand(5)
	b := datagen.GaussianSet(2000, 322)
	_, grid := run(t, a, b, Config{LocalJoin: LocalJoinGrid})
	_, nested := run(t, a, b, Config{LocalJoin: LocalJoinNested})
	if nested.Comparisons <= grid.Comparisons {
		t.Fatalf("nested (%d) should exceed grid (%d) comparisons",
			nested.Comparisons, grid.Comparisons)
	}
}

func TestLocalJoinKindString(t *testing.T) {
	names := map[LocalJoinKind]string{
		LocalJoinGrid:          "grid",
		LocalJoinGridPostDedup: "grid-postdedup",
		LocalJoinSweep:         "sweep",
		LocalJoinNested:        "nested",
		LocalJoinKind(99):      "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestUnknownLocalJoinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown local join kind must panic")
		}
	}()
	a := datagen.UniformSet(50, 331).Expand(30)
	b := datagen.UniformSet(50, 332)
	var c stats.Counters
	Join(a, b, Config{LocalJoin: LocalJoinKind(7)}, nil, &c, &stats.CountSink{})
}

// TestGridLocalJoinGoldenCounts pins the grid local joins' counters to
// exact values. The relational tests above only bound them (post-dedup
// compares at least as much, nested the most), so a change to the
// reference-cell dedup that moved a pair to another cell, or tested it
// twice, would pass them; it fails here. Worker counts must not change
// the counts either.
func TestGridLocalJoinGoldenCounts(t *testing.T) {
	type counts struct{ comparisons, results, replicas int64 }
	golden := map[datagen.Distribution]map[LocalJoinKind]counts{
		datagen.Uniform: {
			LocalJoinGrid:          {2936, 112, 6183},
			LocalJoinGridPostDedup: {2971, 112, 6183},
		},
		datagen.Clustered: {
			LocalJoinGrid:          {1049, 29, 5820},
			LocalJoinGridPostDedup: {1062, 29, 5820},
		},
	}
	for dist, kinds := range golden {
		a := datagen.Generate(datagen.DefaultConfig(dist, 2000, 401)).Expand(10)
		b := datagen.Generate(datagen.DefaultConfig(dist, 6000, 402))
		for kind, want := range kinds {
			for _, workers := range []int{1, 2} {
				_, c := run(t, a, b, Config{LocalJoin: kind, Workers: workers})
				got := counts{c.Comparisons, c.Results, c.Replicas}
				if got != want {
					t.Errorf("%v %s workers=%d: comparisons/results/replicas %d/%d/%d, want %d/%d/%d",
						dist, kind, workers, got.comparisons, got.results, got.replicas,
						want.comparisons, want.results, want.replicas)
				}
			}
		}
	}
}
