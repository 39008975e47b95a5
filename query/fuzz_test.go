package query

import (
	"strings"
	"testing"
)

// FuzzParseQuery pins the parser's safety properties: no input can
// panic it or drive it into unbounded recursion, and every accepted
// input round-trips through Format as a fixed point (Format∘Parse is
// idempotent) — the canonical form, which is also the wire form and
// the single-flight key, is stable and stays accepted.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"exists(states(100-120) @ [20,25]) where tau=0.3 strategy=auto",
		"exists(region(10,20,0,30) @ [5,15]) and not forall(states(3,4) @ [0,9])",
		"exists(states(7) @ [5,10]) then exists(states(9) @ [20,30]) where top=5",
		"eventually(states(40,41)) where steps=500 tol=1e-9",
		"ktimes(states(5) @ {1,3,5}) where strategy=ob workers=4",
		"not (exists(circle(1,2,3) @ {1}) or forall(states() @ {}))",
		"exists(states(1)+region(0,0,1,1) @ {2}) where samples=10 seed=3 cache=off filter=on",
		"count(exists(states(2,3) @ [1,4])) where min=3 strategy=qb",
		"count(exists(states(1) @ [1,2]) and not forall(states(3) @ [0,2]))",
		"count(ktimes(states(5) @ {1,3,5})) where workers=2",
		"occupancy(exists(states(7-9) @ [0,10])) where min=2 filter=off",
		"count(forall(region(0,0,5,5) @ {3}))",
		"e(", "where", "exists(states(1) @ [1,2]) where tau=..5",
		"count(", "occupancy(ktimes(states(1) @ {1}))",
		"exists(states(1) @ [1,2]) where min=1",
		// Mixed unions, nested differences, float edges, deep nesting.
		"exists(region(0,0,1,1)+circle(5,5,1)+states(3,9) @ {1}) and forall(polygon(0,0,4,0,2,3) @ {2})",
		"exists(minus(region(-0,-0,1,1)+circle(1,1,1e-7),minus(circle(0,0,1e308),region(0,0,1,1))) @ {1}) where tau=-0",
		"exists(" + strings.Repeat("minus(", 10000) + "region(0,0,1,1)" + strings.Repeat(",circle(0,0,1))", 10000) + " @ {1})",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		req, err := Parse(input)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		canonical, err := Format(req)
		if err != nil {
			// Parse produces only regions, numbers and ids the text
			// vocabulary carries, so every parsed request must format.
			t.Fatalf("Format(Parse(%q)): %v", input, err)
		}
		req2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form rejected: %q -> %q: %v", input, canonical, err)
		}
		again, err := Format(req2)
		if err != nil {
			t.Fatalf("re-format failed: %q: %v", canonical, err)
		}
		if again != canonical {
			t.Fatalf("not a fixed point:\n input: %q\n first: %q\nsecond: %q", input, canonical, again)
		}
	})
}
