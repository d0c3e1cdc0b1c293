package collective

import (
	"errors"
	"testing"

	"meshslice/internal/mesh"
	"meshslice/internal/tensor"
	"meshslice/internal/topology"
)

func unit(v float64) *tensor.Matrix {
	m := tensor.New(1, 1)
	m.Set(0, 0, v)
	return m
}

// runOnRing executes fn on every chip of a 1x4 torus and returns chip 0's
// result.
func runOnRing(t *testing.T, fn func(cm *mesh.Comm) (any, error)) (any, error) {
	t.Helper()
	var out any
	var outErr error
	mesh.New(topology.NewTorus(1, 4)).Run(func(c *mesh.Chip) {
		v, err := fn(c.RowComm())
		if c.Rank == 0 {
			out, outErr = v, err
		}
	})
	return out, outErr
}

func TestRingSizeErrorValue(t *testing.T) {
	// Wrong block count returns the typed error before any communication,
	// so every chip errors uniformly and nothing deadlocks.
	_, err := runOnRing(t, func(cm *mesh.Comm) (any, error) {
		return ReduceScatterE(cm, []*tensor.Matrix{unit(1), unit(2)}) // ring of 4
	})
	var rse *RingSizeError
	if !errors.As(err, &rse) {
		t.Fatalf("got %T (%v), want *RingSizeError", err, err)
	}
	if rse.Op != "reducescatter" || rse.Blocks != 2 || rse.Ring != 4 {
		t.Errorf("diagnosis %+v", rse)
	}
}

func TestReduceScatterBidirEWrongBlocks(t *testing.T) {
	_, err := runOnRing(t, func(cm *mesh.Comm) (any, error) {
		return ReduceScatterBidirE(cm, nil)
	})
	var rse *RingSizeError
	if !errors.As(err, &rse) {
		t.Fatalf("got %T (%v), want *RingSizeError", err, err)
	}
}

func TestMemberErrorValue(t *testing.T) {
	_, err := runOnRing(t, func(cm *mesh.Comm) (any, error) {
		return BroadcastE(cm, 7, unit(1))
	})
	var me *MemberError
	if !errors.As(err, &me) {
		t.Fatalf("got %T (%v), want *MemberError", err, err)
	}
	if me.Op != "broadcast" || me.Member != 7 || me.Ring != 4 {
		t.Errorf("diagnosis %+v", me)
	}
	if _, err := runOnRing(t, func(cm *mesh.Comm) (any, error) {
		return ReduceE(cm, -1, unit(1))
	}); !errors.As(err, &me) {
		t.Fatalf("reduce: got %T (%v), want *MemberError", err, err)
	}
}

func TestErrorVariantsMatchPanicVariants(t *testing.T) {
	// With valid arguments the E variants compute the same results as the
	// established panic variants.
	got, err := runOnRing(t, func(cm *mesh.Comm) (any, error) {
		blocks := make([]*tensor.Matrix, cm.Size)
		for i := range blocks {
			blocks[i] = unit(float64(cm.Pos*10 + i))
		}
		return ReduceScatterE(cm, blocks)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chip 0 receives sum over chips c of block 0: 0 + 10 + 20 + 30.
	if v := got.(*tensor.Matrix).At(0, 0); v != 60 {
		t.Errorf("ReduceScatterE result = %v, want 60", v)
	}
	got, err = runOnRing(t, func(cm *mesh.Comm) (any, error) {
		return BroadcastE(cm, 2, unit(float64(cm.Pos)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := got.(*tensor.Matrix).At(0, 0); v != 2 {
		t.Errorf("BroadcastE result = %v, want 2", v)
	}
}

func TestPanicVariantPanicsWithTypedError(t *testing.T) {
	// The legacy panic path now carries the typed error as its value, so
	// recover-based callers get structure too. Trigger on one chip only is
	// not safe (the others would hang) — all chips pass the same bad slice,
	// and mesh.Run converts the first chip panic into its own message.
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("mismatched blocks did not panic")
		}
	}()
	mesh.New(topology.NewTorus(1, 4)).Run(func(c *mesh.Chip) {
		ReduceScatter(c.RowComm(), []*tensor.Matrix{unit(1)})
	})
}
