package jobs

import (
	"container/list"
	"sync"

	"ion/internal/extractor"
)

// defaultExtractCacheBytes is the cache budget when Config leaves
// ExtractCacheBytes at zero.
const defaultExtractCacheBytes = 64 << 20

// extractCache is a byte-size-bounded LRU over extraction outputs,
// keyed by the trace content hash the dedup path already computes. A
// re-submitted or re-queued trace whose hash is cached skips parse and
// extract entirely. Cached Outputs are shared read-only across jobs:
// the analysis pipeline never mutates extracted tables.
//
// All methods are safe on a nil receiver (cache disabled) and for
// concurrent use.
type extractCache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses int64
}

type extractCacheEntry struct {
	key  string
	out  *extractor.Output
	size int64
}

// newExtractCache returns a cache bounded to max bytes, or nil
// (disabled) when max <= 0.
func newExtractCache(max int64) *extractCache {
	if max <= 0 {
		return nil
	}
	return &extractCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached output for a trace hash and refreshes its
// recency. Every call counts as a hit or a miss.
func (c *extractCache) get(key string) (*extractor.Output, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*extractCacheEntry).out, true
}

// has reports whether a trace hash is cached, without counting a hit
// or a miss and without refreshing its recency.
func (c *extractCache) has(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// put stores an extraction output, evicting least-recently-used
// entries until the byte budget holds. Outputs larger than the whole
// budget are not cached.
func (c *extractCache) put(key string, out *extractor.Output) {
	if c == nil || key == "" || out == nil {
		return
	}
	size := outputBytes(out)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*extractCacheEntry)
		c.size += size - ent.size
		ent.out, ent.size = out, size
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&extractCacheEntry{key: key, out: out, size: size})
		c.size += size
	}
	for c.size > c.max {
		el := c.order.Back()
		if el == nil {
			break
		}
		ent := el.Value.(*extractCacheEntry)
		c.order.Remove(el)
		delete(c.entries, ent.key)
		c.size -= ent.size
	}
}

func (c *extractCache) hitCount() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

func (c *extractCache) missCount() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

func (c *extractCache) bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

func (c *extractCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// outputBytes estimates the retained size of an extraction output:
// cell bytes plus slice/header overhead per cell and row.
func outputBytes(out *extractor.Output) int64 {
	var n int64
	for name, t := range out.Tables {
		n += int64(len(name)) + 64
		for _, c := range t.Cols {
			n += int64(len(c)) + 16
		}
		for _, row := range t.Rows {
			n += 24
			for _, cell := range row {
				n += int64(len(cell)) + 16
			}
		}
	}
	for name, p := range out.Paths {
		n += int64(len(name)+len(p)) + 32
	}
	return n
}
