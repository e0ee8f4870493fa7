package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one rendered response.
type cacheEntry struct {
	body        []byte
	contentType string
}

// responseCache is the query-result cache of one snapshot: an LRU over
// fully rendered response bodies, keyed by (path, canonical query). It
// is a field of the Snapshot whose answers it holds — born empty with
// the generation and unreachable with it, like core.Realm's fleet-mean
// memo — so a reload invalidates nothing: the next generation's requests
// simply never see this one's entries.
type responseCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List               // front = most recent
	entries map[string]*list.Element // key -> element holding *cacheItem
}

type cacheItem struct {
	key string
	cacheEntry
}

// newCache builds a cache holding up to max entries; max <= 0 disables
// caching entirely (every Get misses, Put is a no-op) so benchmarks can
// measure the cold path.
func newCache(max int) *responseCache {
	return &responseCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// cacheKey builds the canonical lookup key. The query string must
// already be in canonical (sorted, url.Values.Encode) form.
func cacheKey(path, canonicalQuery string) string {
	return path + "?" + canonicalQuery
}

// Get returns the cached response for key, if present.
func (c *responseCache) Get(key string) (cacheEntry, bool) {
	if c.max <= 0 {
		return cacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).cacheEntry, true
}

// Put stores a rendered response, evicting the least recently used
// entry when full.
func (c *responseCache) Put(key string, e cacheEntry) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheItem).cacheEntry = e
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheItem{key: key, cacheEntry: e})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheItem).key)
	}
}

// Len returns the current entry count.
func (c *responseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
