package tensor

import "math"

// AlmostEqual reports whether a and b agree to within tol, scaled by the
// larger magnitude once it exceeds 1 (absolute near zero, relative for
// large values). It is the shared scalar counterpart of Matrix.Equal: any
// comparison between computed floats should go through one of the two —
// exact ==/!= on floats is reserved for annotated cases such as sort
// tie-breaks and sparsity fast paths (see the float-eq lint rule).
// lint:allow unused float-eq's message names it, and serve's example compares with it
func AlmostEqual(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}
