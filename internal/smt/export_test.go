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
		for _, sl := range s.slots {
			if sl.hash != 0 {
				f(string(s.keys[sl.off:sl.off+sl.n]), sl.verdict)
			}
		}
		s.mu.Unlock()
	}
}
