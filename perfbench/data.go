package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The synthetic relations follow the paper's Section 9 generator (the same
// scheme as the repository's workload package): a crisp key K, two fuzzy
// join attributes A and B drawn as narrow triangles jittered around centre
// points, and a padding string, so a tuple serializes to 128 bytes
// (8 degree + 3 x 32 numbers + 1 + 23 string). Both relations draw centres
// from pools of n/C points spaced 1000 apart, so an R tuple joins on
// average C tuples of S. The benchmark feeds these rows to the program only
// as SQL text.

const (
	centreSpacing = 1000.0
	fuzzWidth     = 5.0 // half-width of a value's support
	fuzzJitter    = 0.5 // centre jitter as a fraction of the width
	padLen        = 23  // padding string length: 128-byte tuples
	loadBatch     = 500 // INSERTs per setup transaction
)

// tri is a triangular fuzzy number TRI(lo, peak, hi).
type tri struct{ lo, peak, hi float64 }

func (t tri) sql() string {
	return "TRI(" + num(t.lo) + ", " + num(t.peak) + ", " + num(t.hi) + ")"
}

// num renders v as the shortest decimal that parses back to the same
// float64, without an exponent (the Fuzzy SQL lexer reads plain decimals).
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// row is one generated tuple of the experiment schema.
type row struct {
	k    int
	a, b tri
}

// rowGen draws rows around centres [lo, hi) of the centre pool.
type rowGen struct {
	rng    *rand.Rand
	lo, hi int
}

func (g *rowGen) fuzzyAround(c float64) tri {
	j := (g.rng.Float64()*2 - 1) * fuzzJitter * fuzzWidth
	return tri{c + j - fuzzWidth, c + j, c + j + fuzzWidth}
}

func (g *rowGen) next(k int) row {
	c := float64(g.lo+g.rng.Intn(g.hi-g.lo)) * centreSpacing
	return row{k: k, a: g.fuzzyAround(c), b: g.fuzzyAround(c)}
}

// genRelation draws n rows with keys 0..n-1, centres from a pool of
// n/fanout points.
func genRelation(seed int64, n, fanout int) []row {
	g := &rowGen{rng: rand.New(rand.NewSource(seed)), hi: max(n/fanout, 1)}
	rows := make([]row, n)
	for i := range rows {
		rows[i] = g.next(i)
	}
	return rows
}

// values renders the row's VALUES tuple: the "inserted row text" that
// disk_bytes_per_user_byte divides by.
func (r row) values() string {
	return fmt.Sprintf("(%d, %s, %s, 'p%0*d')", r.k, r.a.sql(), r.b.sql(), padLen-1, r.k)
}

const experimentColumns = "(K NUMBER, A NUMBER, B NUMBER, P STRING)"

// insertScript renders rows as INSERT statements wrapped in transactions
// of loadBatch rows each, returning the scripts and the user bytes.
func insertScripts(table string, rows []row) (scripts []string, userBytes int64) {
	var b strings.Builder
	for i := 0; i < len(rows); i += loadBatch {
		b.Reset()
		b.WriteString("BEGIN;\n")
		for _, r := range rows[i:min(i+loadBatch, len(rows))] {
			v := r.values()
			userBytes += int64(len(v))
			b.WriteString("INSERT INTO " + table + " VALUES " + v + ";\n")
		}
		b.WriteString("COMMIT;")
		scripts = append(scripts, b.String())
	}
	return scripts, userBytes
}

// subSeed derives an independent generator seed for one purpose from the
// run seed, so each relation's rows depend only on (seed, purpose).
func subSeed(seed int64, purpose string) int64 {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return seed*1000003 ^ h
}
