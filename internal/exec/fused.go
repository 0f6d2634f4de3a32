package exec

import (
	"repro/internal/frel"
	"repro/internal/kernel"
)

// FusedFilter is the compiled form of a filter chain (optionally ending in
// a WITH D >= z threshold): the whole chain runs as one kernel.Program
// loop over each batch, with no per-tuple closure dispatch and counters
// flushed once per batch. Outputs and degree-evaluation counts are
// identical to the equivalent chain of interpreted Filter operators
// followed by a Threshold — the kernel calls the same closed-form degree
// functions, and it evaluates later predicates only on tuples earlier ones
// kept, exactly like the chain does.
type FusedFilter struct {
	Src  Source
	Prog *kernel.Program
	Z    float64 // WITH D >= Z threshold; 0 keeps every positive degree

	// Stats is the filter's plan node: it counts the chain's degree
	// evaluations, the same count the interpreted chain's predicates make,
	// and the tuples the kernel evaluated (KernelTuples).
	Stats *OpStats
}

// NewFusedFilter builds a compiled filter chain over src, counting into
// st.
func NewFusedFilter(src Source, prog *kernel.Program, z float64, st *OpStats) *FusedFilter {
	return &FusedFilter{Src: src, Prog: prog, Z: z, Stats: st}
}

// Schema implements Source.
func (f *FusedFilter) Schema() *frel.Schema { return f.Src.Schema() }

// Open implements Source: the fused hot path.
func (f *FusedFilter) Open() (BatchIterator, error) {
	in, err := f.Src.Open()
	if err != nil {
		return nil, err
	}
	return &fusedBatchIterator{f: f, in: in}, nil
}

type fusedBatchIterator struct {
	f    *FusedFilter
	in   BatchIterator
	degs []float64
	out  []frel.Tuple
}

func (it *fusedBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	f := it.f
	for {
		b, ok := it.in.NextBatch()
		if !ok {
			return nil, false
		}
		if cap(it.degs) < len(b) {
			it.degs = make([]float64, len(b))
		}
		degs := it.degs[:len(b)]
		f.Stats.DegreeEvals.Add(f.Prog.RunBatch(b, degs))
		f.Stats.KernelTuples.Add(int64(len(b)))
		// Pass-through fast path: a batch the kernel neither drops from
		// nor re-grades is served as-is (no copy).
		copying := false
		for i, t := range b {
			d := degs[i]
			if !copying {
				if d == t.D && d > 0 && d >= f.Z {
					continue
				}
				copying = true
				it.out = append(it.out[:0], b[:i]...)
			}
			if d <= 0 || d < f.Z {
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

func (it *fusedBatchIterator) Err() error { return it.in.Err() }
func (it *fusedBatchIterator) Close()     { it.in.Close() }
