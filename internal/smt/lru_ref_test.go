package smt

import (
	"bytes"
	"container/list"
	"testing"
)

// lruRef is the constraint cache Cache replaced, kept as the reference
// FuzzCacheMatchesReference holds it to: a map from key to container/list
// element, the most recently used entry at the front, the back one evicted
// past capacity. (It was sixteen such segments behind locks; one serves as an
// oracle.)
type lruRef struct {
	capacity int
	ll       *list.List
	items    map[string]*list.Element
}

type lruEntry struct {
	key string
	res Result
}

func newLRURef(capacity int) *lruRef {
	return &lruRef{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lruRef) get(key []byte) (Result, bool) {
	el, ok := c.items[string(key)]
	if !ok {
		return Unknown, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lruRef) put(key []byte, res Result) {
	if el, ok := c.items[string(key)]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[string(key)] = c.ll.PushFront(&lruEntry{key: string(key), res: res})
	if c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// refKeys is the key universe FuzzCacheMatchesReference draws from besides
// the fuzz bytes themselves: the empty key; keys that are prefixes of one
// another, across the hash's 8- and 16-byte word boundaries; keys that differ
// only in trailing zero bytes, which the hash pads with; keys over 256 bytes;
// and three 8-byte heads, which differ in one byte, each alone and in front
// of the same two paths.
func refKeys() [][]byte {
	long := bytes.Repeat([]byte("0123456789abcdef"), 20)
	keys := [][]byte{{}, []byte("a"), []byte("a\x00"), []byte("a\x00\x00\x00\x00\x00\x00\x00"), []byte("\x00")}
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257, 300, 320} {
		keys = append(keys, long[:n])
	}
	for _, ns := range []string{"\x00\x00\x00\x00\x00\x00\x00\x00", "\x01\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x01"} {
		keys = append(keys, []byte(ns), []byte(ns+"\x02\x05\x01\x09"), []byte(ns+"\x02\x05\x01\x09\x03\x0c"))
	}
	return keys
}

// cacheOp is one decoded fuzz operation.
type cacheOp struct {
	put bool
	key []byte
	res Result
}

// decodeCacheOps reads two bytes per operation: the first picks put or get,
// the verdict a put records, and whether the key comes from refKeys (indexed
// by the second byte) or is the second byte's worth (mod 40) of the bytes
// that follow.
func decodeCacheOps(data []byte) []cacheOp {
	universe := refKeys()
	var ops []cacheOp
	for len(data) >= 2 {
		b0, b1 := data[0], data[1]
		data = data[2:]
		op := cacheOp{put: b0&1 != 0, res: Result(b0>>1) % 3}
		if b0&8 != 0 {
			n := min(int(b1)%40, len(data))
			op.key, data = data[:n], data[n:]
		} else {
			op.key = universe[int(b1)%len(universe)]
		}
		ops = append(ops, op)
	}
	return ops
}

// checkShards verifies every shard's table: each slot's arena bytes hash to
// that shard and to the slot's hash (no compaction moved a key from under
// its slot), a probe for the key ends at that slot (no key is unreachable or
// held twice, whatever evictions shifted), n counts the occupied slots, and
// dead counts exactly the arena bytes no slot names.
func checkShards(t *testing.T, c *Cache) {
	t.Helper()
	for si := range c.shards {
		s := &c.shards[si]
		occupied, live := 0, 0
		for i, sl := range s.slots {
			if sl.hash == 0 {
				continue
			}
			occupied++
			live += int(sl.n)
			key := s.keys[sl.off : sl.off+sl.n]
			if home, h := c.locate(key); home != s || h != sl.hash {
				t.Fatalf("shard %d: slot %d holds hash %#x, its key %q hashes to %#x", si, i, sl.hash, key, h)
			}
			if j, ok := s.find(sl.hash, key); !ok || j != i {
				t.Fatalf("shard %d: the key %q in slot %d is found at %d (%v)", si, key, i, j, ok)
			}
		}
		if occupied != s.n || live != len(s.keys)-s.dead {
			t.Fatalf("shard %d: %d occupied slots, n = %d; %d live key bytes, arena %d - dead %d",
				si, occupied, s.n, live, len(s.keys), s.dead)
		}
	}
}

// FuzzCacheMatchesReference runs a random sequence of puts and gets through
// a Cache and through the LRU it replaced. While no shard is asked to hold
// more distinct keys than its share of the capacity, neither evicts, and
// every get must agree with the reference's (verdict, ok) and the lengths
// must match. Past that, the two evict different keys (CLOCK, not LRU), and
// what must hold is exactness: a hit returns the last verdict put for that
// key, and the cache never holds more than its capacity. After every put
// each shard's table must be consistent (checkShards).
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 3, 1, 2, 1, 5, 20, 4, 20, 9, 3, 'a', 'b', 'c', 8, 3, 'a', 'b', 'c'}, uint16(64))
	f.Add([]byte{1, 5, 3, 6, 5, 7, 1, 8, 0, 5, 0, 6, 0, 7, 0, 8, 1, 18, 0, 18, 1, 19, 0, 19}, uint16(3))
	f.Add(bytes.Repeat([]byte{1, 0, 3, 17, 5, 26, 0, 17, 0, 0, 7, 26, 0, 26}, 8), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, capacity16 uint16) {
		ops := decodeCacheOps(data)
		capacity := int(capacity16)%512 + 1
		c := NewCache(capacity)
		perShard := map[uint64]map[string]bool{}
		fits := true
		for _, op := range ops {
			if !op.put {
				continue
			}
			s := cacheHash(op.key) >> (64 - cacheShardBits)
			if perShard[s] == nil {
				perShard[s] = map[string]bool{}
			}
			perShard[s][string(op.key)] = true
			fits = fits && len(perShard[s]) <= c.shards[s].limit
		}
		ref := newLRURef(capacity)
		last := map[string]Result{}
		for i, op := range ops {
			if op.put {
				c.PutBytes(op.key, op.res)
				ref.put(op.key, op.res)
				last[string(op.key)] = op.res
				if n := c.Len(); n > capacity {
					t.Fatalf("op %d: %d verdicts held, capacity %d", i, n, capacity)
				}
				checkShards(t, c)
				continue
			}
			got, ok := c.GetBytes(op.key)
			if fits {
				want, wantOK := ref.get(op.key)
				if got != want || ok != wantOK {
					t.Fatalf("op %d: get %q = %v, %v; the reference says %v, %v", i, op.key, got, ok, want, wantOK)
				}
			} else if ok {
				if want, put := last[string(op.key)]; !put || got != want {
					t.Fatalf("op %d: get %q hit %v; last put %v (put: %v)", i, op.key, got, want, put)
				}
			}
		}
		if fits && c.Len() != ref.ll.Len() {
			t.Fatalf("len %d, the reference's %d", c.Len(), ref.ll.Len())
		}
	})
}
