package core

import (
	"reflect"
	"testing"

	"snaple/internal/graph"
)

func TestArenaBuildProtocol(t *testing.T) {
	a := NewArena[int](4)
	counts := []int{2, 0, 3, 1}
	for u, c := range counts {
		a.SetCount(graph.VertexID(u), c)
	}
	a.FinishCounts()
	if a.Total() != 6 {
		t.Fatalf("Total = %d, want 6", a.Total())
	}
	val := 0
	for u := 0; u < a.NumRows(); u++ {
		row := a.Row(graph.VertexID(u))
		if len(row) != counts[u] {
			t.Fatalf("row %d length %d, want %d", u, len(row), counts[u])
		}
		for i := range row {
			row[i] = val
			val++
		}
	}
	if got := a.Row(2); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("Row(2) = %v", got)
	}
	if got := a.Row(1); len(got) != 0 || got == nil {
		t.Errorf("empty row should be non-nil zero-length, got %#v", got)
	}
}

// rankedTestSet builds a VertexSet over [0, n) from a member list.
func rankedTestSet(n int, members ...graph.VertexID) *VertexSet {
	bits := newBits(n)
	size := 0
	for _, v := range members {
		if bitsAdd(bits, v) {
			size++
		}
	}
	return finishSet(bits, size)
}

// TestArenaOverSet pins the ranked arena: rows are addressed by vertex ID,
// sized by the set, and a non-member's row is empty but non-nil.
func TestArenaOverSet(t *testing.T) {
	set := rankedTestSet(200, 3, 64, 65, 130, 199)
	a := NewArenaOver[int](set)
	if a.NumRows() != set.Len() {
		t.Fatalf("NumRows = %d, want %d", a.NumRows(), set.Len())
	}
	counts := map[graph.VertexID]int{3: 2, 64: 0, 65: 3, 130: 1, 199: 2}
	for _, v := range set.Members() {
		a.SetCount(v, counts[v])
	}
	a.FinishCounts()
	if a.Total() != 8 {
		t.Fatalf("Total = %d, want 8", a.Total())
	}
	val := 0
	for _, v := range set.Members() {
		row := a.Row(v)
		if len(row) != counts[v] {
			t.Fatalf("row %d length %d, want %d", v, len(row), counts[v])
		}
		for i := range row {
			row[i] = val
			val++
		}
	}
	if got := a.Row(65); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Errorf("Row(65) = %v", got)
	}
	for _, v := range []graph.VertexID{0, 4, 63, 66, 131, 198} {
		if got := a.Row(v); len(got) != 0 || got == nil {
			t.Errorf("non-member row %d should be non-nil zero-length, got %#v", v, got)
		}
	}
	if got := a.Row(64); len(got) != 0 || got == nil {
		t.Errorf("empty member row should be non-nil zero-length, got %#v", got)
	}
}

// TestArenaOverEmptySet covers a set with no members: every row is empty
// and non-nil.
func TestArenaOverEmptySet(t *testing.T) {
	a := NewArenaOver[int](rankedTestSet(70))
	a.FinishCounts()
	for _, v := range []graph.VertexID{0, 69} {
		if got := a.Row(v); len(got) != 0 || got == nil {
			t.Errorf("row %d should be non-nil zero-length, got %#v", v, got)
		}
	}
}
