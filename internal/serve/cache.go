package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"
)

// Value is a cached response: the exact bytes the server will replay,
// plus the content type they were produced under. Replaying bytes (not
// re-encoding structs) is what makes cache hits byte-identical to the
// response that populated them. What a replay would otherwise derive
// from the bytes again is derived once, when the value is made
// (newValue), and travels with it.
type Value struct {
	Body        []byte
	ContentType string
	// SHA256 is Body's hex SHA-256 digest ("" for an empty body): the
	// body_sha256 of every run record that serves the value.
	SHA256 string
	// canonical reports that Body is one JSON value exactly as
	// marshalJSON renders it (isCanonical), so a batch report can
	// splice it in without encoding it again (batchReportJSON).
	canonical bool
}

// newValue makes the value of a freshly computed body: it hashes the
// body and checks once whether a JSON body is canonical. It keeps a copy
// the size of the body, because the cache bounds len(Body) and the
// encoder's buffer may hold up to twice as much (marshalJSON).
func newValue(body []byte, contentType string) Value {
	body = bytes.Clone(body)
	return Value{Body: body, ContentType: contentType, SHA256: bodySHA256(body),
		canonical: contentType == "application/json" && isCanonical(body)}
}

// bodySHA256 is body's hex SHA-256 digest, or "" for an empty body.
func bodySHA256(body []byte) string {
	if len(body) == 0 {
		return ""
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// entryOverhead is the accounting estimate per entry: key, digest,
// pointers, list node.
const entryOverhead = 128

func (v Value) size() int64 {
	return int64(len(v.Body)) + int64(len(v.ContentType)) + entryOverhead
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	MaxBytes    int64 `json:"max_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Expirations int64 `json:"expirations"`
}

// Cache is a byte-bounded LRU with optional TTL over content-addressed
// synthesis results. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	ttl      time.Duration // 0 = entries never expire
	ll       *list.List    // front = most recently used
	items    map[string]*list.Element
	bytes    int64

	hits, misses, evictions, expirations int64

	now func() time.Time // injectable clock for TTL tests
}

type cacheEntry struct {
	key     string
	val     Value
	expires time.Time // zero = never
}

// NewCache builds a cache bounded to maxBytes of stored response bytes
// (plus a small per-entry overhead). maxBytes <= 0 disables caching
// entirely; ttl <= 0 disables expiry.
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	if ttl < 0 {
		ttl = 0
	}
	return &Cache{
		maxBytes: maxBytes,
		ttl:      ttl,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		now:      time.Now,
	}
}

// Get returns the cached value for key and whether it was present and
// fresh. An expired entry counts as a miss and is removed.
func (c *Cache) Get(key string) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookupLocked(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// recheck looks key up again for a caller whose Get just missed. A hit
// turns that counted miss into a hit, so one request counts once.
func (c *Cache) recheck(key string) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookupLocked(key)
	if ok {
		c.hits++
		c.misses--
	}
	return v, ok
}

// lookupLocked returns key's fresh value, marking it most recently
// used; it removes an expired entry. It counts no hit or miss.
func (c *Cache) lookupLocked(key string) (Value, bool) {
	el, ok := c.items[key]
	if !ok {
		return Value{}, false
	}
	ent := el.Value.(*cacheEntry)
	if !ent.expires.IsZero() && c.now().After(ent.expires) {
		c.removeLocked(el)
		c.expirations++
		return Value{}, false
	}
	c.ll.MoveToFront(el)
	return ent.val, true
}

// Put stores the value under key, evicting least-recently-used entries
// until the byte bound holds. A value larger than the whole cache is
// not stored.
func (c *Cache) Put(key string, v Value) {
	if v.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += v.size() - ent.val.size()
		ent.val, ent.expires = v, expires
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, val: v, expires: expires})
		c.items[key] = el
		c.bytes += v.size()
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.val.size()
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     len(c.items),
		Bytes:       c.bytes,
		MaxBytes:    c.maxBytes,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Expirations: c.expirations,
	}
}
