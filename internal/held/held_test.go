package held

import "testing"

// TestTakeEmptiesAndGiveKeepsTheLarger walks the store's rule: Take hands
// out the held slice and leaves the store empty, a slice too small for a
// Take is dropped, and Give keeps the larger of what it is given and what
// it holds.
func TestTakeEmptiesAndGiveKeepsTheLarger(t *testing.T) {
	var s Store[int]
	big := s.Take(8)
	if len(big) != 8 {
		t.Fatalf("Take(8) from an empty store: len %d", len(big))
	}
	s.Give(big)
	if got := s.Take(4); len(got) != 4 || &got[0] != &big[0] {
		t.Fatal("Take(4) did not hand out the held 8-element slice")
	}
	if got := s.Take(4); &got[0] == &big[0] {
		t.Fatal("a second Take handed out the slice the first one holds")
	}
	s.Give(big)
	s.Give(make([]int, 2))
	if got := s.Take(0); cap(got) != 8 {
		t.Fatalf("the store kept a slice of capacity %d, want the larger, 8", cap(got))
	}
	s.Give(big)
	if got := s.Take(16); &got[0] == &big[0] || len(got) != 16 {
		t.Fatal("Take(16) did not allocate past the held 8 elements")
	}
	if got := s.Take(0); cap(got) != 0 {
		t.Fatal("a Take too large for the held slice left it in the store")
	}
}
