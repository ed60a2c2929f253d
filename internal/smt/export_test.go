package smt

// Differ and NewDiffer expose the solver-against-reference harness to the
// external test that holds them to the conjunctions real checks solve, which
// needs the checker (an importer of this package) for its subjects.
type Differ = differ

var NewDiffer = newDiffer

// Each hands f every cached key with its verdict.
func (c *Cache) Each(f func(key string, res Result)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			f(e.key, e.res)
		}
		s.mu.Unlock()
	}
}
