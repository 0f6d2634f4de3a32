package exec

import (
	"repro/internal/frel"
	"repro/internal/storage"
)

// BlockNLJoin is the naive (block) nested-loop join the paper's nested
// queries must be evaluated with (Sections 1 and 3). Following the
// experimental setup of Section 9, one buffer page is allocated to the
// inner relation and the rest of the memory budget to the outer relation:
// the outer source is consumed in blocks of up to BlockBytes, and for each
// block the inner source is scanned once, joining every inner tuple with
// every buffered outer tuple. CPU cost is O(n_R × n_S); I/O cost is
// b_R + ceil(b_R / (M-1)) × b_S.
//
// The emitted tuple is outer ++ inner with degree
// min(outer.D, inner.D, On(outer, inner)).
type BlockNLJoin struct {
	Outer, Inner Source
	On           JoinPred
	BlockBytes   int // outer block budget; default one page

	// Stats is the join's plan node: every outer×inner pair counts as one
	// comparison and one degree evaluation (the On conjuncts count
	// themselves).
	Stats *OpStats

	schema *frel.Schema
}

// NewBlockNLJoin builds a block nested-loop join with the given outer
// block budget in bytes (values < 1 default to one page), counting into
// st.
func NewBlockNLJoin(outer, inner Source, on JoinPred, blockBytes int, st *OpStats) *BlockNLJoin {
	if blockBytes < 1 {
		blockBytes = storage.PageSize
	}
	return &BlockNLJoin{
		Outer:      outer,
		Inner:      inner,
		On:         on,
		BlockBytes: blockBytes,
		Stats:      st,
		schema:     outer.Schema().Join(inner.Schema()),
	}
}

// Schema implements Source.
func (j *BlockNLJoin) Schema() *frel.Schema { return j.schema }

// Open implements Source.
func (j *BlockNLJoin) Open() (BatchIterator, error) {
	outerIt, err := j.Outer.Open()
	if err != nil {
		return nil, err
	}
	return &nlBatchIterator{join: j, outer: outerIt, loc: newBatchLocals()}, nil
}

type nlBatchIterator struct {
	join  *BlockNLJoin
	outer BatchIterator

	// The outer block, copied out of the outer batches, and the rest of
	// the outer batch the block budget cut short.
	block     []frel.Tuple
	obatch    []frel.Tuple
	opos      int
	outerDone bool

	// The inner scan of the current block, and the position of the next
	// pair: inner tuple ibatch[ipos] against block[bpos].
	inner  BatchIterator
	ibatch []frel.Tuple
	ipos   int
	bpos   int

	out []frel.Tuple
	loc batchLocals
	err error
}

// fillBlock buffers the next block of outer tuples within the byte budget.
func (it *nlBatchIterator) fillBlock() bool {
	it.block = it.block[:0]
	schema := it.join.Outer.Schema()
	used := 0
	for used < it.join.BlockBytes && !it.outerDone {
		if it.opos >= len(it.obatch) {
			b, ok := it.outer.NextBatch()
			if !ok {
				it.err = it.outer.Err()
				it.outerDone = true
				break
			}
			it.obatch, it.opos = b, 0
		}
		t := it.obatch[it.opos]
		it.opos++
		it.block = append(it.block, t)
		used += frel.EncodedSize(schema, t)
	}
	return it.err == nil && len(it.block) > 0
}

// nextInner stages the next inner batch, opening the inner scan of the
// next outer block when the current one is exhausted.
func (it *nlBatchIterator) nextInner() bool {
	for {
		if it.inner == nil {
			if !it.fillBlock() {
				return false
			}
			in, err := it.join.Inner.Open()
			if err != nil {
				it.err = err
				return false
			}
			it.inner = in
		}
		b, ok := it.inner.NextBatch()
		if ok {
			it.ibatch, it.ipos, it.bpos = b, 0, 0
			return true
		}
		if it.err = it.inner.Err(); it.err != nil {
			return false
		}
		it.inner.Close()
		it.inner = nil // next outer block
	}
}

func (it *nlBatchIterator) NextBatch() ([]frel.Tuple, bool) {
	j := it.join
	it.out = it.out[:0]
	for len(it.out) < BatchSize {
		if it.ipos >= len(it.ibatch) {
			if !it.nextInner() {
				break
			}
			continue
		}
		r := it.ibatch[it.ipos]
		for it.bpos < len(it.block) && len(it.out) < BatchSize {
			l := it.block[it.bpos]
			it.bpos++
			it.loc.cmp++
			it.loc.deg++
			d := j.On(l, r)
			if l.D < d {
				d = l.D
			}
			if r.D < d {
				d = r.D
			}
			if d > 0 {
				it.out = append(it.out, l.Concat(r, d))
			}
		}
		if it.bpos == len(it.block) {
			it.ipos++
			it.bpos = 0
		}
	}
	it.loc.flush(j.Stats)
	return it.out, len(it.out) > 0
}

func (it *nlBatchIterator) Err() error { return it.err }

func (it *nlBatchIterator) Close() {
	if it.inner != nil {
		it.inner.Close()
		it.inner = nil
	}
	it.outer.Close()
}
