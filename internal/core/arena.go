package core

import "snaple/internal/graph"

// Arena is flat CSR-style storage for per-vertex variable-length rows: one
// offsets table plus one shared backing array, mirroring the graph's own
// adjacency layout (SNAP's lesson that compact flat representations, not
// pointer-rich ones, are what scale single-machine analytics). Each step of
// Algorithm 2 materialises its per-vertex output — truncated neighbourhoods,
// relay lists, 2-hop path lists — in one Arena instead of a slice of
// per-vertex slices, so a full pass over the graph costs two allocations
// (offsets + data) rather than one small GC-tracked object per vertex.
//
// Build protocol (two passes, mirroring counting sort):
//
//	a := NewArena[T](n)
//	for u := range n { a.SetCount(u, countFor(u)) }   // pass 1: row sizes
//	a.FinishCounts()                                  // prefix sum + backing array
//	for u := range n { fillInto(a.Row(u)) }           // pass 2: write rows
//
// SetCount calls for distinct vertices touch disjoint offsets and Row
// returns disjoint sub-slices, so both passes parallelise over vertex ranges
// with no synchronisation beyond a barrier around FinishCounts.
//
// A query-scoped run only materialises rows for its frontier closure, so
// its arenas are built over a VertexSet (NewArenaOver): the offsets table
// is indexed by the member's rank and sized by the set, not the graph, and
// every non-member's row is empty. Callers address rows by global vertex ID
// either way.
type Arena[T any] struct {
	off  []int64 // len rows+1; data[off[i]:off[i+1]] is row i after FinishCounts
	data []T
	set  *VertexSet // non-nil: row i belongs to the set member of rank i
}

// NewArena returns an arena with n empty rows, one per vertex of [0, n),
// ready for the count pass.
func NewArena[T any](n int) *Arena[T] {
	return &Arena[T]{off: make([]int64, n+1)}
}

// NewArenaOver returns an arena with one row per member of set, addressed by
// vertex ID: its offsets cost 8 B per member rather than per graph vertex.
// Rows of vertices outside the set are empty and cannot be counted.
func NewArenaOver[T any](set *VertexSet) *Arena[T] {
	return &Arena[T]{off: make([]int64, set.Len()+1), set: set}
}

// NumRows returns the number of rows.
func (a *Arena[T]) NumRows() int { return len(a.off) - 1 }

// SetCount records row u's length during the count pass. Concurrent calls
// for distinct vertices are safe. On an arena built over a set, u must be a
// member.
func (a *Arena[T]) SetCount(u graph.VertexID, c int) {
	i := int(u)
	if a.set != nil {
		i = a.set.Rank(u)
	}
	a.off[i+1] = int64(c)
}

// FinishCounts turns the recorded counts into offsets (an exclusive prefix
// sum) and allocates the backing array. Call exactly once, between the
// count and fill pass.
func (a *Arena[T]) FinishCounts() {
	var total int64
	for i := 1; i < len(a.off); i++ {
		total += a.off[i]
		a.off[i] = total
	}
	a.data = make([]T, total)
}

// Row returns row u, backed by the shared array. After FinishCounts the fill
// pass writes it; rows of distinct vertices never overlap. Empty rows are
// empty (never nil) slices.
func (a *Arena[T]) Row(u graph.VertexID) []T {
	if a.set == nil {
		return a.data[a.off[u]:a.off[u+1]]
	}
	i, ok := a.set.memberRank(u)
	if !ok {
		return a.data[:0:0]
	}
	return a.data[a.off[i]:a.off[i+1]]
}

// Total returns the summed length of all rows (valid after FinishCounts).
func (a *Arena[T]) Total() int { return len(a.data) }
