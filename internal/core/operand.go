package core

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/frel"
	"repro/internal/fsql"
	"repro/internal/fuzzy"
)

// getter extracts an operand's value from an evaluation tuple.
type getter func(frel.Tuple) frel.Value

// operandInfo is a resolved operand: where its value comes from and, when
// known, its kind. Side is 0 or 1 for the two inputs of a join predicate,
// or -1 for literals and single-input predicates.
type operandInfo struct {
	get       getter
	side      int
	kind      frel.Kind
	kindKnown bool
	// rawString is set for string literals pending linguistic-term
	// resolution (their final kind depends on the opposite operand).
	rawString string
	isRawStr  bool
	// col (for references) and constVal (for settled literals) carry the
	// kernel-consumable flat form of the operand: a column index in its
	// side's schema, or the resolved constant value.
	col      int
	constVal frel.Value
	isConst  bool
}

// resolveOperand resolves opd against the given schemas in order. String
// literals are left pending (isRawStr) until finish decides whether they
// are crisp strings or linguistic terms.
func resolveOperand(opd fsql.Operand, schemas ...*frel.Schema) (operandInfo, error) {
	switch opd.Kind {
	case fsql.OpdRef:
		for side, s := range schemas {
			if s == nil {
				continue
			}
			if i, err := s.Resolve(opd.Ref); err == nil {
				side := side
				i := i
				return operandInfo{
					get:       func(t frel.Tuple) frel.Value { return t.Values[i] },
					side:      side,
					kind:      s.Attrs[i].Kind,
					kindKnown: true,
					col:       i,
				}, nil
			}
		}
		return operandInfo{}, fmt.Errorf("core: cannot resolve attribute reference %q", opd.Ref)
	case fsql.OpdNumber:
		v := frel.Num(opd.Num)
		return operandInfo{
			get:       func(frel.Tuple) frel.Value { return v },
			side:      -1,
			kind:      frel.KindNumber,
			kindKnown: true,
			constVal:  v,
			isConst:   true,
		}, nil
	case fsql.OpdString:
		return operandInfo{side: -1, rawString: opd.Str, isRawStr: true}, nil
	case fsql.OpdParam:
		return operandInfo{}, fmt.Errorf("core: unbound parameter '?' (bind arguments through a prepared statement)")
	default:
		return operandInfo{}, fmt.Errorf("core: unknown operand kind %d", opd.Kind)
	}
}

// finishOperand resolves a pending string literal given the kind of the
// opposite operand: against a numeric attribute it must be a linguistic
// term; otherwise it is a crisp string.
func (e *Env) finishOperand(info operandInfo, otherKind frel.Kind, otherKnown bool) (operandInfo, error) {
	if !info.isRawStr {
		return info, nil
	}
	if otherKnown && otherKind == frel.KindNumber {
		t, ok := e.term(info.rawString)
		if !ok {
			return operandInfo{}, fmt.Errorf("core: %w %q (compared against a numeric attribute)", ErrUnknownTerm, info.rawString)
		}
		v := frel.Num(t)
		return operandInfo{get: func(frel.Tuple) frel.Value { return v }, side: -1, kind: frel.KindNumber, kindKnown: true, constVal: v, isConst: true}, nil
	}
	v := frel.Str(info.rawString)
	return operandInfo{get: func(frel.Tuple) frel.Value { return v }, side: -1, kind: frel.KindString, kindKnown: true, constVal: v, isConst: true}, nil
}

// resolvePair resolves both operands of a comparison, settling pending
// linguistic terms against each other's kinds.
func (e *Env) resolvePair(left, right fsql.Operand, schemas ...*frel.Schema) (l, r operandInfo, err error) {
	l, err = resolveOperand(left, schemas...)
	if err != nil {
		return operandInfo{}, operandInfo{}, err
	}
	r, err = resolveOperand(right, schemas...)
	if err != nil {
		return operandInfo{}, operandInfo{}, err
	}
	l2, err := e.finishOperand(l, r.kind, r.kindKnown)
	if err != nil {
		return operandInfo{}, operandInfo{}, err
	}
	r2, err := e.finishOperand(r, l.kind, l.kindKnown)
	if err != nil {
		return operandInfo{}, operandInfo{}, err
	}
	return l2, r2, nil
}

// compilePred compiles a PredCompare or PredNear whose operands are both
// resolvable in one schema into an exec.Pred. Each evaluation counts one
// degree evaluation into node.
func (e *Env) compilePred(schema *frel.Schema, p fsql.Predicate, node *exec.OpStats) (exec.Pred, error) {
	deg, err := e.pairDegreeFunc(p)
	if err != nil {
		return nil, err
	}
	l, r, err := e.resolvePair(p.Left, p.Right, schema)
	if err != nil {
		return nil, err
	}
	return func(t frel.Tuple) float64 {
		node.DegreeEvals.Add(1)
		return deg(l.get(t), r.get(t))
	}, nil
}

// pairDegreeFunc returns the value-level degree function of a comparison
// or similarity predicate.
func (e *Env) pairDegreeFunc(p fsql.Predicate) (func(a, b frel.Value) float64, error) {
	switch p.Kind {
	case fsql.PredCompare:
		op := p.Op
		return func(a, b frel.Value) float64 { return frel.Degree(op, a, b) }, nil
	case fsql.PredNear:
		tol := p.Tol
		return func(a, b frel.Value) float64 {
			if a.Kind != frel.KindNumber || b.Kind != frel.KindNumber {
				return 0
			}
			return fuzzy.ApproxEq(a.Num, b.Num, tol)
		}, nil
	default:
		return nil, fmt.Errorf("core: expected a comparison or NEAR predicate, got %v", p)
	}
}

// compileJoinPred compiles a PredCompare or PredNear across two inputs
// into an exec.JoinPred. Each operand may resolve in either input (the
// left input is tried first) or be a literal. Each evaluation counts one
// degree evaluation into node.
func (e *Env) compileJoinPred(left, right *frel.Schema, p fsql.Predicate, node *exec.OpStats) (exec.JoinPred, error) {
	deg, err := e.pairDegreeFunc(p)
	if err != nil {
		return nil, err
	}
	l, r, err := e.resolvePair(p.Left, p.Right, left, right)
	if err != nil {
		return nil, err
	}
	pick := func(info operandInfo, lt, rt frel.Tuple) frel.Value {
		switch info.side {
		case 0:
			return info.get(lt)
		case 1:
			return info.get(rt)
		default:
			return info.get(frel.Tuple{})
		}
	}
	return func(lt, rt frel.Tuple) float64 {
		node.DegreeEvals.Add(1)
		return deg(pick(l, lt, rt), pick(r, lt, rt))
	}, nil
}

// valueDegree computes d(v op z) between generic values.
func valueDegree(op fuzzy.Op, v, z frel.Value) float64 {
	return frel.Degree(op, v, z)
}

// setMember is one element of a fuzzy set of generic values (the
// temporary relation T(r) of the execution semantics).
type setMember struct {
	val frel.Value
	mu  float64
}

// inDegree computes d(v in T) over generic values (Section 4).
func inDegree(v frel.Value, set []setMember) float64 {
	d := 0.0
	for _, m := range set {
		if g := fuzzy.Min(m.mu, valueDegree(fuzzy.OpEq, v, m.val)); g > d {
			d = g
			if d == 1 {
				break
			}
		}
	}
	return d
}

// allDegree computes d(v op ALL T) over generic values (Section 7).
func allDegree(op fuzzy.Op, v frel.Value, set []setMember) float64 {
	worst := 0.0
	for _, m := range set {
		if g := fuzzy.Min(m.mu, 1-valueDegree(op, v, m.val)); g > worst {
			worst = g
			if worst == 1 {
				break
			}
		}
	}
	return 1 - worst
}

// anyDegree computes d(v op ANY T) over generic values.
func anyDegree(op fuzzy.Op, v frel.Value, set []setMember) float64 {
	d := 0.0
	for _, m := range set {
		if g := fuzzy.Min(m.mu, valueDegree(op, v, m.val)); g > d {
			d = g
			if d == 1 {
				break
			}
		}
	}
	return d
}
