package service

import (
	"sync"
	"testing"

	"relaxsched/internal/api"
)

func specN(seed uint64) api.GraphSpec {
	return api.GraphSpec{Model: api.ModelGNP, N: 200, Edges: 600, Seed: seed}
}

func TestCacheHitOnRepeat(t *testing.T) {
	c := newGraphCache(4)
	g1, hit, err := c.Get(specN(1))
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	g2, hit, err := c.Get(specN(1))
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if g1 != g2 {
		t.Fatal("repeat get returned a different graph object")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newGraphCache(2)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, _, err := c.Get(specN(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Seed 1 is the least recently used — it must be the eviction victim.
	if _, hit, err := c.Get(specN(3)); err != nil || !hit {
		t.Fatalf("newest entry evicted: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Get(specN(1)); err != nil || hit {
		t.Fatalf("oldest entry survived a full cache: hit=%v err=%v", hit, err)
	}
	st := c.Stats()
	if st.Evictions < 1 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	if st.Entries > 2 {
		t.Fatalf("cache over capacity: %+v", st)
	}
}

func TestCacheTouchRefreshesLRUOrder(t *testing.T) {
	c := newGraphCache(2)
	c.Get(specN(1))
	c.Get(specN(2))
	c.Get(specN(1)) // touch 1; now 2 is LRU
	c.Get(specN(3)) // evicts 2
	if _, hit, _ := c.Get(specN(1)); !hit {
		t.Fatal("recently touched entry was evicted")
	}
	if _, hit, _ := c.Get(specN(2)); hit {
		t.Fatal("LRU entry survived")
	}
}

// TestCacheSingleBuildUnderConcurrency: many goroutines asking for the same
// spec must share one build — exactly one miss, and everyone gets the same
// *graph.Graph.
func TestCacheSingleBuildUnderConcurrency(t *testing.T) {
	c := newGraphCache(4)
	const goroutines = 16
	graphs := make([]any, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, _, err := c.Get(api.GraphSpec{Model: api.ModelGNP, N: 5000, Edges: 20000, Seed: 42})
			if err != nil {
				t.Error(err)
				return
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d misses for one spec under concurrency, want 1 (stats %+v)", st.Misses, st)
	}
	for i := 1; i < goroutines; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent getters received different graph objects")
		}
	}
}

// TestCacheFailedBuildNotCached: a failing spec is retried (and re-counted
// as a miss) on the next identical request instead of pinning the error.
func TestCacheFailedBuildNotCached(t *testing.T) {
	c := newGraphCache(4)
	// Validates at Get time: gnp with more edges than a simple graph holds.
	bad := api.GraphSpec{Model: api.ModelGNP, N: 3, Edges: 100, Seed: 1}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(bad); err == nil {
			t.Fatal("impossible spec built")
		}
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Fatalf("failed build cached: %+v", st)
	}
	if st.Entries != 0 {
		t.Fatalf("failed entry retained: %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newGraphCache(-1)
	for i := 0; i < 2; i++ {
		if _, hit, err := c.Get(specN(1)); err != nil || hit {
			t.Fatalf("disabled cache: hit=%v err=%v", hit, err)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("disabled cache stats: %+v", st)
	}
}
