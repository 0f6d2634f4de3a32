package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/frel"
	"repro/pkg/fuzzydb"
)

// Answers are compared as a digest of their sorted rows, each carrying
// the exact bits of its degree. Row order is not part of a fuzzy
// relation: the naive and unnested evaluations return the same rows in
// different orders, so Result.Equal (which compares in order) cannot
// serve as the check.

// digestRows returns "<rows>:<hash>" over the rendered rows and degrees.
func digestRows(rows [][]string, degrees []float64) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f") + "\x1e" + strconv.FormatUint(math.Float64bits(degrees[i]), 16)
	}
	slices.Sort(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%x", len(lines), h.Sum(nil)[:12])
}

// digestResult digests a public-API answer.
func digestResult(r *fuzzydb.Result) string {
	rows := make([][]string, r.Len())
	degrees := make([]float64, r.Len())
	for i := range rows {
		rows[i] = r.Row(i)
		degrees[i] = r.Degree(i)
	}
	return digestRows(rows, degrees)
}

// digestRelation digests an engine relation rendered the way the public
// API renders it (strings verbatim, numbers by Trapezoid.String), so a
// traced answer compares against the same reference as a public one.
func digestRelation(rel *frel.Relation) string {
	rows := make([][]string, len(rel.Tuples))
	degrees := make([]float64, len(rel.Tuples))
	for i, t := range rel.Tuples {
		row := make([]string, len(t.Values))
		for j, v := range t.Values {
			if v.Kind == frel.KindString {
				row[j] = v.Str
			} else {
				row[j] = v.Num.String()
			}
		}
		rows[i], degrees[i] = row, t.D
	}
	return digestRows(rows, degrees)
}

// oracleCheck loads a reduced instance into a fresh directory with load,
// then checks every query's unnested answer against QueryNaive (the
// paper's nested semantics) at zero tolerance: identical rows, identical
// degree bits. A mismatch of a query in queries is an error. The queries
// in known are checked the same way, but their mismatches are returned as
// notes of known defects, so every run shows whether they still stand.
func oracleCheck(dir string, load func(db *fuzzydb.DB) error, queries, known []string) (notes []string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := fuzzydb.Open(dir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := load(db); err != nil {
		return nil, fmt.Errorf("load reduced instance: %w", err)
	}
	for _, q := range queries {
		if err := checkNaive(db, q); err != nil {
			return nil, err
		}
	}
	for _, q := range known {
		if err := checkNaive(db, q); err != nil {
			notes = append(notes, "known defect, not counted as a failure: "+err.Error())
		} else {
			notes = append(notes, "known defect fixed: "+q+" matches the naive evaluation; put it back among the timed classes")
		}
	}
	return notes, nil
}

// checkNaive compares q's unnested answer with QueryNaive's.
func checkNaive(db *fuzzydb.DB, q string) error {
	got, err := db.Query(q)
	if err != nil {
		return fmt.Errorf("%s: %w", q, err)
	}
	want, err := db.QueryNaive(q)
	if err != nil {
		return fmt.Errorf("naive %s: %w", q, err)
	}
	if g, w := digestResult(got), digestResult(want); g != w {
		return fmt.Errorf("%s: unnested answer %s differs from naive %s", q, g, w)
	}
	if got.Len() == 0 {
		return fmt.Errorf("%s: empty answer on the reduced instance checks nothing", q)
	}
	return nil
}
