package bitmapidx

import (
	"fmt"
	"strings"

	"repro/internal/dbc"
	"repro/internal/isa"
	"repro/internal/isa/compile"
	"repro/internal/memory"
	"repro/internal/params"
	"repro/internal/telemetry"
)

// ExecuteOnMemory runs a boolean query on the functional whole-memory
// model through pimc — the §III-E path where "cpim operations can be
// generated by the compiler". Each leaf bitmap is written into rows of
// bank 0, one chunk of TrackWidth users per row. The query becomes a
// pimasm program with one load per leaf chunk, one not/and/or/xor per
// expression node per chunk and one store per result chunk, compiled
// at -O2 and run with Plan.Run: pimc places each chunk's statements as
// lanes of shared batch windows and chains nodes wider than the TR
// window. A Store too large for one program (compile.MaxStatements
// statements) runs as several programs, each over a range of chunks.
// The count is read back from the result rows and is bit-exact against
// the reference evaluator; tests assert both.
func ExecuteOnMemory(m *memory.Memory, s *Store, e Expr) (int, error) {
	defer m.Recorder().Span(telemetry.Source("bitmapidx"), "query")()
	width := m.Config().Geometry.TrackWidth
	chunks := (s.Users + width - 1) / width

	q := query{index: map[string]int{}}
	if err := q.collect(s, e); err != nil {
		return 0, err
	}
	perChunk := len(q.leaves) + q.ops + 1
	if perChunk > compile.MaxStatements {
		return 0, fmt.Errorf("bitmapidx: query needs %d statements per chunk, pimc takes %d", perChunk, compile.MaxStatements)
	}
	// Each range runs end to end — leaf rows written, program run,
	// result rows counted — before the next range writes its rows. pimc
	// keeps its companion and staging rows out of only the DBCs a
	// program names, so no other range's rows may be live while it runs.
	span := compile.MaxStatements / perChunk
	count := 0
	for lo := 0; lo < chunks; lo += span {
		n, err := q.run(m, s, e, lo, min(span, chunks-lo))
		if err != nil {
			return 0, err
		}
		count += n
	}
	return count, nil
}

// run computes e over the n chunks from chunk lo and returns the count
// of its set bits. Leaf i's chunk lo+c lives at row i*n+c, the result's
// chunk lo+c at row len(q.leaves)*n+c.
func (q *query) run(m *memory.Memory, s *Store, e Expr, lo, n int) (int, error) {
	cfg := m.Config()
	g := cfg.Geometry
	width := g.TrackWidth
	for i, b := range q.leaves {
		for c := 0; c < n; c++ {
			row := dbc.NewRow(width)
			for w := 0; w < width; w++ {
				if u := (lo+c)*width + w; u < s.Users && b.Get(u) {
					row.Set(w, 1)
				}
			}
			if err := m.WriteRow(rowAddr(g, i*n+c), row); err != nil {
				return 0, err
			}
		}
	}
	result := len(q.leaves) * n

	var src strings.Builder
	for c := 0; c < n; c++ {
		for i := range q.leaves {
			fmt.Fprintf(&src, "%%l%d_%d = load %s\n", i, c, isa.FormatAddr(rowAddr(g, i*n+c)))
		}
		k := 0
		reg := q.emit(&src, e, c, &k)
		fmt.Fprintf(&src, "store %s, %s\n", reg, isa.FormatAddr(rowAddr(g, result+c)))
	}
	res, err := compile.Compile(src.String(), cfg, compile.Options{Level: 2})
	if err != nil {
		return 0, err
	}
	if err := res.Plan.Run(m); err != nil {
		return 0, err
	}

	count := 0
	for c := 0; c < n; c++ {
		row, err := m.ReadRow(rowAddr(g, result+c))
		if err != nil {
			return 0, err
		}
		for w := 0; w < min(width, s.Users-(lo+c)*width); w++ {
			count += int(row.Get(w))
		}
	}
	return count, nil
}

// query is an expression's distinct leaf bitmaps, numbered in order of
// first appearance, and its count of operation statements per chunk.
type query struct {
	leaves []Bitmap
	index  map[string]int
	ops    int
}

// collect walks e, numbering its leaves and counting the statements
// emit writes for one chunk.
func (q *query) collect(s *Store, e Expr) error {
	switch n := e.(type) {
	case leaf:
		if _, ok := q.index[n.name]; ok {
			return nil
		}
		b, err := n.get(s)
		if err != nil {
			return err
		}
		q.index[n.name] = len(q.leaves)
		q.leaves = append(q.leaves, b)
		return nil
	case negate:
		q.ops++
		return q.collect(s, n.arg)
	case nary:
		if len(n.args) == 0 {
			return fmt.Errorf("bitmapidx: empty %s", n.op)
		}
		if len(n.args) > 1 {
			q.ops++
		}
		for _, a := range n.args {
			if err := q.collect(s, a); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("bitmapidx: unknown expression %T", e)
	}
}

// emit writes the statements computing e's chunk c and returns the
// register holding it. *n numbers the chunk's operation registers. A
// one-operand and/or/xor is its operand, so it emits nothing.
func (q *query) emit(b *strings.Builder, e Expr, c int, n *int) string {
	var op string
	var args []Expr
	switch e := e.(type) {
	case leaf:
		return fmt.Sprintf("%%l%d_%d", q.index[e.name], c)
	case negate:
		op, args = "not", []Expr{e.arg}
	case nary:
		if len(e.args) == 1 {
			return q.emit(b, e.args[0], c, n)
		}
		op, args = e.op, e.args
	}
	regs := make([]string, len(args))
	for i, a := range args {
		regs[i] = q.emit(b, a, c, n)
	}
	reg := fmt.Sprintf("%%n%d_%d", *n, c)
	*n++
	fmt.Fprintf(b, "%s = %s %s\n", reg, op, strings.Join(regs, ", "))
	return reg
}

// rowAddr is the k-th row of bank 0 outside its PIM tiles, filled DBC
// by DBC, which leaves the PIM tiles to pimc's executing, companion and
// staging DBCs.
func rowAddr(g params.Geometry, k int) isa.Addr {
	d := k / g.RowsPerDBC
	tile := d / g.DBCsPerTile
	tiles := g.TilesPerSubarray - g.PIMTilesPerSub
	return isa.Addr{
		Subarray: tile / tiles,
		Tile:     g.PIMTilesPerSub + tile%tiles,
		DBC:      d % g.DBCsPerTile,
		Row:      k % g.RowsPerDBC,
	}
}
