package core

// Ranked retrieval: the comparator and heap behind WithTopK.

// better reports whether a ranks above b: higher probability first,
// then smaller id.
func better(a, b Result) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.ObjectID < b.ObjectID
}

// BetterRanked is the engine's ranking order (WithTopK's sort and
// tie-break), exported so merging layers — the shard router's k-way
// heap — use the one comparator instead of a drifting copy.
func BetterRanked(a, b Result) bool { return better(a, b) }

// resultMinHeap keeps the current top-k with the weakest entry on top.
type resultMinHeap []Result

func (h resultMinHeap) Len() int            { return len(h) }
func (h resultMinHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h resultMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultMinHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
