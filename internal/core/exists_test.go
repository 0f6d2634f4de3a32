package core

import (
	"math/rand"
	"testing"
)

// TestExistsCorrelated: correlated EXISTS unnests as a semi-join
// flattening (Section 7 notes EXIST unnests like SOME).
func TestExistsCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		e := envRS(t, rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE EXISTS (SELECT S.Z FROM S WHERE S.V = R.U)`,
			StrategyChain)
	}
}

// TestExistsWithPredicates: p1 and p2 alongside the EXISTS.
func TestExistsWithPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 15; trial++ {
		e := envRS(t, rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y > 4 AND EXISTS (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z < 18)`,
			StrategyChain)
	}
}

// TestNotExistsCorrelated: correlated NOT EXISTS runs as the
// group-minimum anti-join without a linking predicate.
func TestNotExistsCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		e := envRS(t, rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE NOT EXISTS (SELECT S.Z FROM S WHERE S.V = R.U)`,
			StrategyAntiJoin)
	}
}

// TestNotExistsWithInnerPredicate: the inner filter participates in the
// penalty.
func TestNotExistsWithInnerPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 15; trial++ {
		e := envRS(t, rng, 20, 30, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.U < 16 AND NOT EXISTS
			  (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z > 10)`,
			StrategyAntiJoin)
	}
}

// TestNotExistsUncorrelated: without correlation the anti-join degenerates
// to a constant penalty over the whole inner relation.
func TestNotExistsUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		e := envRS(t, rng, 15, 20, 0)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE NOT EXISTS (SELECT S.Z FROM S WHERE S.V > 14)`,
			StrategyAntiJoin)
	}
}

// TestExistsInsideChain: EXISTS nested inside an IN chain.
func TestExistsInsideChain(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 10; trial++ {
		e := envRS(t, rng, 15, 20, 25)
		checkEquivalence(t, e, `
			SELECT R.TAG FROM R
			WHERE R.Y IN
			  (SELECT S.Z FROM S
			   WHERE S.V = R.U AND EXISTS
			     (SELECT T.P FROM T WHERE T.W = S.V))`,
			StrategyChain)
	}
}

// TestExistsEmptyInner: EXISTS over an always-empty subquery removes all
// outer tuples; NOT EXISTS keeps them at their own degree.
func TestExistsEmptyInner(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	e := envRS(t, rng, 10, 10, 0)
	checkEquivalence(t, e, `
		SELECT R.TAG FROM R
		WHERE EXISTS (SELECT S.Z FROM S WHERE S.V > 1000)`,
		StrategyChain)
	checkEquivalence(t, e, `
		SELECT R.TAG FROM R
		WHERE NOT EXISTS (SELECT S.Z FROM S WHERE S.V > 1000)`,
		StrategyAntiJoin)
}
