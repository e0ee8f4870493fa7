package serve

import (
	"fmt"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(3)
	for i := 0; i < 3; i++ {
		c.Put(cacheKey(fmt.Sprintf("/p%d", i), ""), cacheEntry{body: []byte{byte(i)}})
	}
	// Touch p0 so p1 becomes the eviction victim.
	if _, ok := c.Get(cacheKey("/p0", "")); !ok {
		t.Fatal("p0 missing before eviction")
	}
	c.Put(cacheKey("/p3", ""), cacheEntry{body: []byte{3}})
	if _, ok := c.Get(cacheKey("/p1", "")); ok {
		t.Fatal("LRU victim p1 survived eviction")
	}
	for _, p := range []string{"/p0", "/p2", "/p3"} {
		if _, ok := c.Get(cacheKey(p, "")); !ok {
			t.Fatalf("%s evicted unexpectedly", p)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache len %d, want 3", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(0)
	c.Put("k", cacheEntry{body: []byte("v")})
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	// Through the server a disabled cache counts every data request a miss.
	dir := t.TempDir()
	writeDataDir(t, dir, fixtureStore(10), fixtureSeries(2), nil)
	srv, err := New(Config{DataDir: dir, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/api/v1/trends")
	hits, misses := srv.met.cacheHits.Load(), srv.met.cacheMisses.Load()
	if hits != 0 || misses != 1 {
		t.Fatalf("disabled cache stats hits=%d misses=%d", hits, misses)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := newCache(2)
	c.Put("k", cacheEntry{body: []byte("v1")})
	c.Put("k", cacheEntry{body: []byte("v2")})
	if c.Len() != 1 {
		t.Fatalf("duplicate Put grew the cache to %d", c.Len())
	}
	if e, _ := c.Get("k"); string(e.body) != "v2" {
		t.Fatalf("Put did not update in place: %q", e.body)
	}
}
