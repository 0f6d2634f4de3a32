// Package workload generates the synthetic fuzzy relations of the paper's
// experiments (Section 9): randomly generated tuples of a controllable
// serialized size, where a tuple of one relation joins, on the average,
// with C tuples of the other relation, and the intervals associated with
// the join attribute values are kept small ("data may be imprecise but not
// very vague").
//
// Fanout control: both relations draw their join-attribute centres from
// the same pool of n/C widely spaced centre points; values are narrow
// triangular distributions jittered around their centre, so two values
// intersect exactly when they share a centre. With equal relation sizes
// each tuple then joins C tuples of the other relation in expectation.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/frel"
	"repro/internal/fuzzy"
	"repro/internal/storage"
)

// Params describes one generated relation.
type Params struct {
	Name       string
	Tuples     int
	TupleBytes int     // target serialized tuple size (paper: 128..2048)
	Fanout     int     // C: average number of join partners (paper: 1..128)
	Width      float64 // half-width of the value supports (vagueness)
	Jitter     float64 // centre jitter as a fraction of Width (0..1)
	Seed       int64
}

// centreSpacing is the distance between adjacent centre points; values
// jittered within ±Width around a centre never cross centres as long as
// Width < centreSpacing/4.
const centreSpacing = 1000.0

// baseTupleBytes is the serialized size of a tuple before padding:
// degree (8) + three numeric attributes K, A, B (32 each).
const baseTupleBytes = 8 + 3*32

// Schema returns the experiment relation schema: a crisp key K and two
// fuzzy join attributes A (the correlation attribute) and B (the linking
// attribute), padded to the requested tuple size.
func Schema(name string, tupleBytes int) (*frel.Schema, error) {
	if tupleBytes < baseTupleBytes {
		return nil, fmt.Errorf("workload: tuple size %d below minimum %d", tupleBytes, baseTupleBytes)
	}
	s := frel.NewSchema(name,
		frel.Attribute{Name: "K", Kind: frel.KindNumber},
		frel.Attribute{Name: "A", Kind: frel.KindNumber},
		frel.Attribute{Name: "B", Kind: frel.KindNumber},
	)
	s.Pad = tupleBytes - baseTupleBytes
	return s, nil
}

// Generate builds the relation in memory.
func Generate(p Params) (*frel.Relation, error) {
	if p.Tuples < 0 {
		return nil, fmt.Errorf("workload: negative tuple count")
	}
	if p.Fanout < 1 {
		return nil, fmt.Errorf("workload: fanout must be >= 1")
	}
	if p.Width <= 0 {
		return nil, fmt.Errorf("workload: width must be positive")
	}
	if p.Width >= centreSpacing/4 {
		return nil, fmt.Errorf("workload: width %g too large for centre spacing %g", p.Width, centreSpacing)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return nil, fmt.Errorf("workload: jitter must be in [0, 1]")
	}
	schema, err := Schema(p.Name, p.TupleBytes)
	if err != nil {
		return nil, err
	}
	centres := p.Tuples / p.Fanout
	if centres < 1 {
		centres = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	rel := frel.NewRelation(schema)
	for i := 0; i < p.Tuples; i++ {
		c := float64(rng.Intn(centres)) * centreSpacing
		rel.Append(frel.NewTuple(1,
			frel.Crisp(float64(i)),
			frel.Num(fuzzyAround(rng, c, p.Width, p.Jitter)),
			frel.Num(fuzzyAround(rng, c, p.Width, p.Jitter)),
		))
	}
	return rel, nil
}

// fuzzyAround builds a narrow triangular value jittered around centre c.
func fuzzyAround(rng *rand.Rand, c, width, jitter float64) fuzzy.Trapezoid {
	j := (rng.Float64()*2 - 1) * jitter * width
	return fuzzy.Tri(c+j-width, c+j, c+j+width)
}

// Load generates the relation and writes it to a fresh heap file in the
// catalog, flushing it to disk.
func Load(cat *catalog.Catalog, p Params) (*storage.HeapFile, error) {
	rel, err := Generate(p)
	if err != nil {
		return nil, err
	}
	return LoadRelation(cat, p.Name, rel)
}

// LoadRelation writes rel's tuples to a fresh heap file named name in the
// catalog, flushing it to disk.
func LoadRelation(cat *catalog.Catalog, name string, rel *frel.Relation) (*storage.HeapFile, error) {
	h, err := cat.CreateRelation(name, rel.Schema)
	if err != nil {
		return nil, err
	}
	if err := h.AppendAll(rel); err != nil {
		return nil, err
	}
	if err := h.Flush(); err != nil {
		return nil, err
	}
	return h, nil
}
