package exec

import "repro/internal/frel"

// Pred evaluates the satisfaction degree of a condition on one tuple
// (Section 2.2 of the paper). Implementations return a value in [0, 1].
type Pred func(frel.Tuple) float64

// JoinPred evaluates the satisfaction degree of a condition across a pair
// of tuples.
type JoinPred func(left, right frel.Tuple) float64

// TruePred is the always-satisfied predicate.
func TruePred(frel.Tuple) float64 { return 1 }

// And combines predicates with fuzzy AND (minimum), short-circuiting at 0.
func And(ps ...Pred) Pred {
	if len(ps) == 0 {
		return TruePred
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return func(t frel.Tuple) float64 {
		d := 1.0
		for _, p := range ps {
			if g := p(t); g < d {
				d = g
				if d == 0 {
					return 0
				}
			}
		}
		return d
	}
}

// Filter passes through tuples with degree min(t.D, pred(t)), dropping
// those whose degree is 0 — a fuzzy selection.
type Filter struct {
	Src  Source
	Pred Pred
}

// NewFilter builds a fuzzy selection.
func NewFilter(src Source, pred Pred) *Filter { return &Filter{Src: src, Pred: pred} }

// Schema implements Source.
func (f *Filter) Schema() *frel.Schema { return f.Src.Schema() }

// Open implements Source: selection filters each input batch into a
// reused output buffer.
func (f *Filter) Open() (BatchIterator, error) {
	in, err := f.Src.Open()
	if err != nil {
		return nil, err
	}
	return &filterBatchIterator{in: in, pred: f.Pred}, nil
}

type filterBatchIterator struct {
	in   BatchIterator
	pred Pred
	out  []frel.Tuple
}

func (it *filterBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		// Pass-through fast path: while the predicate neither drops nor
		// re-grades tuples, serve the producer's batch as-is (no copy).
		// The predicate runs exactly once per tuple either way (predicates
		// may carry counters).
		copying := false
		for i, t := range b {
			d := t.D
			if g := it.pred(t); g < d {
				d = g
			}
			if !copying {
				if d == t.D && d > 0 {
					continue
				}
				copying = true
				it.out = append(it.out[:0], b[:i]...)
			}
			if d <= 0 {
				continue
			}
			t.D = d
			it.out = append(it.out, t)
		}
		if !copying {
			return b, true
		}
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *filterBatchIterator) Err() error { return it.in.Err() }
func (it *filterBatchIterator) Close()     { it.in.Close() }

// Project projects tuples onto a subset of attributes and, when Dedup is
// set, eliminates duplicates keeping the maximum membership degree (fuzzy
// OR), the paper's answer-construction rule. Deduplication materializes
// the distinct tuples before emitting them. A projection onto exactly its
// source's attributes, in order (a source that already emits the
// projected row, like a merge-join narrowed with Emit), passes the
// tuples through without copying them.
type Project struct {
	Src   Source
	Refs  []string
	Dedup bool

	schema *frel.Schema
	idx    []int // nil: the identity projection
}

// NewProject builds a projection onto the given attribute references.
func NewProject(src Source, refs []string, dedup bool) (*Project, error) {
	schema, idx, err := src.Schema().Project(refs)
	if err != nil {
		return nil, err
	}
	identity := len(idx) == len(src.Schema().Attrs)
	for i, j := range idx {
		identity = identity && i == j
	}
	if identity {
		idx = nil
	}
	return &Project{Src: src, Refs: refs, Dedup: dedup, schema: schema, idx: idx}, nil
}

// Schema implements Source.
func (p *Project) Schema() *frel.Schema { return p.schema }

// Open implements Source. The non-dedup projection writes the projected
// values of each batch into one fresh arena (a single allocation per
// batch instead of one per tuple); the dedup form materializes the
// distinct tuples and replays them.
func (p *Project) Open() (BatchIterator, error) {
	in, err := p.Src.Open()
	if err != nil {
		return nil, err
	}
	if !p.Dedup {
		if p.idx == nil {
			return in, nil
		}
		return &projectBatchIterator{in: in, idx: p.idx}, nil
	}
	defer in.Close()
	rel := frel.NewRelation(p.schema)
	seen := make(map[string]int)
	for {
		b, ok := in.NextBatch()
		if !ok {
			break
		}
		for _, t := range b {
			pt := t
			if p.idx != nil {
				pt = t.Project(p.idx)
			}
			k := pt.Key()
			if i, ok := seen[k]; ok {
				if pt.D > rel.Tuples[i].D {
					rel.Tuples[i].D = pt.D
				}
				continue
			}
			seen[k] = rel.Len()
			rel.Append(pt)
		}
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	return &memBatchIterator{tuples: rel.Tuples}, nil
}

type projectBatchIterator struct {
	in  BatchIterator
	idx []int
	out []frel.Tuple
}

func (it *projectBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	b, ok := it.in.NextBatch()
	if !ok {
		return nil, false
	}
	it.out = it.out[:0]
	arena := make([]frel.Value, 0, len(b)*len(it.idx))
	for _, t := range b {
		off := len(arena)
		for _, i := range it.idx {
			arena = append(arena, t.Values[i])
		}
		it.out = append(it.out, frel.Tuple{Values: arena[off:len(arena):len(arena)], D: t.D})
	}
	return it.out, true
}

func (it *projectBatchIterator) Err() error { return it.in.Err() }
func (it *projectBatchIterator) Close()     { it.in.Close() }

// Threshold drops tuples whose degree is below z (and always those with
// degree 0) — the WITH D >= z clause.
type Threshold struct {
	Src Source
	Z   float64
}

// NewThreshold builds a WITH-clause filter.
func NewThreshold(src Source, z float64) *Threshold { return &Threshold{Src: src, Z: z} }

// Schema implements Source.
func (th *Threshold) Schema() *frel.Schema { return th.Src.Schema() }

// Open implements Source.
func (th *Threshold) Open() (BatchIterator, error) {
	in, err := th.Src.Open()
	if err != nil {
		return nil, err
	}
	return &thresholdBatchIterator{in: in, z: th.Z}, nil
}

type thresholdBatchIterator struct {
	in  BatchIterator
	z   float64
	out []frel.Tuple
}

func (it *thresholdBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		// Pass-through fast path: a batch with nothing to drop is served
		// as-is (no copy).
		i := 0
		for ; i < len(b); i++ {
			if b[i].D <= 0 || b[i].D < it.z {
				break
			}
		}
		if i == len(b) {
			return b, true
		}
		it.out = append(it.out[:0], b[:i]...)
		for ; i < len(b); i++ {
			t := b[i]
			if t.D <= 0 || t.D < it.z {
				continue
			}
			it.out = append(it.out, t)
		}
		if len(it.out) > 0 {
			return it.out, true
		}
	}
}

func (it *thresholdBatchIterator) Err() error { return it.in.Err() }
func (it *thresholdBatchIterator) Close()     { it.in.Close() }
