package store

import (
	"encoding/json"
	"fmt"
	"io"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
)

// JSON interchange types. The JSON form is verbose but diffable and
// written by other tooling; the binary form is the storage format.

// ChainJSON is the JSON shape of a transition matrix.
type ChainJSON struct {
	NumStates   int              `json:"num_states"`
	Transitions []TransitionJSON `json:"transitions"`
}

// TransitionJSON is one non-zero transition probability.
type TransitionJSON struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	P    float64 `json:"p"`
}

// ObservationJSON is one observation of an object.
type ObservationJSON struct {
	Time   int       `json:"time"`
	States []int     `json:"states"`
	Probs  []float64 `json:"probs"`
}

// ObjectJSON is one uncertain object.
type ObjectJSON struct {
	ID           int               `json:"id"`
	Chain        *ChainJSON        `json:"chain,omitempty"`
	Observations []ObservationJSON `json:"observations"`
}

// DatabaseJSON is the top-level JSON document.
type DatabaseJSON struct {
	DefaultChain ChainJSON    `json:"default_chain"`
	Objects      []ObjectJSON `json:"objects"`
}

func chainFromJSON(cj ChainJSON) (*markov.Chain, error) {
	if cj.NumStates < 1 {
		return nil, fmt.Errorf("store: chain with %d states", cj.NumStates)
	}
	b := sparse.NewBuilder(cj.NumStates, cj.NumStates)
	for _, tr := range cj.Transitions {
		if tr.From < 0 || tr.From >= cj.NumStates || tr.To < 0 || tr.To >= cj.NumStates {
			return nil, fmt.Errorf("store: transition (%d,%d) outside %d states", tr.From, tr.To, cj.NumStates)
		}
		b.Add(tr.From, tr.To, tr.P)
	}
	return markov.NewChain(b.Build())
}

// ImportJSON reads a JSON interchange document (DatabaseJSON). The store
// writes only the binary form; the reader is for documents written by
// other tooling and by earlier versions of this one.
func ImportJSON(r io.Reader) (*core.Database, error) {
	var doc DatabaseJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("store: decoding JSON: %w", err)
	}
	chain, err := chainFromJSON(doc.DefaultChain)
	if err != nil {
		return nil, err
	}
	db := core.NewDatabase(chain)
	for _, oj := range doc.Objects {
		var own *markov.Chain
		if oj.Chain != nil {
			own, err = chainFromJSON(*oj.Chain)
			if err != nil {
				return nil, fmt.Errorf("store: object %d chain: %w", oj.ID, err)
			}
		}
		var obs []core.Observation
		n := chain.NumStates()
		if own != nil {
			n = own.NumStates()
		}
		for _, obJSON := range oj.Observations {
			pdf, perr := markov.WeightedOver(n, obJSON.States, obJSON.Probs)
			if perr != nil {
				return nil, fmt.Errorf("store: object %d observation at t=%d: %w", oj.ID, obJSON.Time, perr)
			}
			obs = append(obs, core.Observation{Time: obJSON.Time, PDF: pdf})
		}
		o, oerr := core.NewObject(oj.ID, own, obs...)
		if oerr != nil {
			return nil, fmt.Errorf("store: object %d: %w", oj.ID, oerr)
		}
		if err := db.Add(o); err != nil {
			return nil, err
		}
	}
	return db, nil
}
