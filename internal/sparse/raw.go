package sparse

import "fmt"

// Raw bitset accessors: the networked sweep tier ships a cached
// envelope as its words and adopts them back without copies.

// Words64 exposes the bitset's backing words without copying. A caller
// may OR in bits of members below Len() (the lane kernel adds its rows a
// word at a time); a bit at or beyond Len() must never be set.
func (b *Bitset) Words64() []uint64 { return b.words }

// BitsetFromWords adopts a word slice — no copy — as a bitset over
// {0, …, n−1}. The slice length must match exactly and no bit at or
// beyond n may be set (Count and Equal trust the tail to be clean).
func BitsetFromWords(n int, words []uint64) (*Bitset, error) {
	if n < 0 {
		return nil, fmt.Errorf("sparse: negative bitset dimension %d", n)
	}
	if len(words) != (n+63)/64 {
		return nil, fmt.Errorf("sparse: bitset over %d states needs %d words, got %d", n, (n+63)/64, len(words))
	}
	if tail := n & 63; tail != 0 && len(words) > 0 {
		if words[len(words)-1]>>uint(tail) != 0 {
			return nil, fmt.Errorf("sparse: bitset word tail has bits beyond dimension %d", n)
		}
	}
	return &Bitset{n: n, words: words}, nil
}
