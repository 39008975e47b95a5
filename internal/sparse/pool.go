package sparse

import (
	"sync"
	"sync/atomic"
)

// sizedPools keeps one sync.Pool per dimension (databases routinely mix
// chains over different state spaces). The dimension → pool map is
// copy-on-write: a Get or Put of a dimension seen before is one atomic
// load and a map read — the parallel object-based fan-out does four per
// object — and only the first use of a new dimension takes the mutex.
type sizedPools struct {
	mu    sync.Mutex // serializes growth of the map
	pools atomic.Pointer[map[int]*sync.Pool]
}

// forSize returns the pool of dimension n, creating it (with mk(n) as
// its constructor) on first use.
func (s *sizedPools) forSize(n int, mk func(n int) any) *sync.Pool {
	if m := s.pools.Load(); m != nil {
		if sp, ok := (*m)[n]; ok {
			return sp
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	grown := map[int]*sync.Pool{}
	if m := s.pools.Load(); m != nil {
		if sp, ok := (*m)[n]; ok {
			return sp // a concurrent first use won the race
		}
		for k, sp := range *m {
			grown[k] = sp
		}
	}
	sp := &sync.Pool{New: func() any { return mk(n) }}
	grown[n] = sp
	s.pools.Store(&grown)
	return sp
}

// VecPool recycles sweep scratch vectors across queries. Every backward
// sweep and forward pass needs one or two |S|-sized buffers; on a 100k
// state space that is ~1.6 MB of garbage per evaluated request. The pool
// keeps one free list per dimension and hands out zeroed, sparse-mode
// vectors.
//
// VecPool is safe for concurrent use; the zero value is ready to use.
type VecPool struct{ sized sizedPools }

// Get returns a zeroed vector of dimension n, reusing a pooled one when
// available.
func (p *VecPool) Get(n int) *Vec {
	if p == nil {
		return NewVec(n)
	}
	return p.sized.forSize(n, newPooledVec).Get().(*Vec)
}

// Put returns v to the pool for reuse. v must not be used afterwards.
// Putting a vector that escaped to a caller (a returned score, a cached
// entry) is a bug; only scratch buffers go back.
func (p *VecPool) Put(v *Vec) {
	if p == nil || v == nil {
		return
	}
	v.Reset()
	p.sized.forSize(v.Len(), newPooledVec).Put(v)
}

func newPooledVec(n int) any { return NewVec(n) }

// FloatPool recycles flat float64 blocks: the scratch of the columnar
// multi-observation/posterior kernels, which work on raw state-major
// lanes instead of Vecs. Like VecPool it keeps one free list per length
// and hands out zeroed slices; the zero value is ready to use and a nil
// *FloatPool degrades to plain allocation.
type FloatPool struct{ sized sizedPools }

// Get returns a zeroed block of length n.
func (p *FloatPool) Get(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	return *p.sized.forSize(n, newPooledBlock).Get().(*[]float64)
}

// Put returns b to the pool. b must not be used afterwards.
func (p *FloatPool) Put(b []float64) {
	if p == nil || b == nil {
		return
	}
	clear(b)
	p.sized.forSize(len(b), newPooledBlock).Put(&b)
}

func newPooledBlock(n int) any { b := make([]float64, n); return &b }
