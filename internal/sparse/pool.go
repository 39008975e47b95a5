package sparse

import (
	"sync"
	"sync/atomic"
)

// VecPool recycles |S|-sized scratch vectors, such as the working vector
// a pdf constructor builds in: on a 100k state space each is ~0.8 MB of
// garbage. The pool keeps one free list per dimension (databases
// routinely mix chains over different state spaces) and hands out
// zeroed, sparse-mode vectors. The dimension → free list map is
// copy-on-write: a Get or Put of a dimension seen before is one atomic
// load and a map read, and only the first use of a new dimension takes
// the mutex.
//
// VecPool is safe for concurrent use; the zero value is ready to use.
type VecPool struct {
	mu    sync.Mutex // serializes growth of the map
	pools atomic.Pointer[map[int]*sync.Pool]
}

// forSize returns the free list of dimension n, creating it on first use.
func (p *VecPool) forSize(n int) *sync.Pool {
	if m := p.pools.Load(); m != nil {
		if sp, ok := (*m)[n]; ok {
			return sp
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	grown := map[int]*sync.Pool{}
	if m := p.pools.Load(); m != nil {
		if sp, ok := (*m)[n]; ok {
			return sp // a concurrent first use won the race
		}
		for k, sp := range *m {
			grown[k] = sp
		}
	}
	sp := &sync.Pool{New: func() any { return NewVec(n) }}
	grown[n] = sp
	p.pools.Store(&grown)
	return sp
}

// Get returns a zeroed vector of dimension n, reusing a pooled one when
// available.
func (p *VecPool) Get(n int) *Vec {
	if p == nil {
		return NewVec(n)
	}
	return p.forSize(n).Get().(*Vec)
}

// Put returns v to the pool for reuse. v must not be used afterwards.
// Putting a vector that escaped to a caller (a returned score, a cached
// entry) is a bug; only scratch buffers go back.
func (p *VecPool) Put(v *Vec) {
	if p == nil || v == nil {
		return
	}
	v.Reset()
	p.forSize(v.Len()).Put(v)
}
