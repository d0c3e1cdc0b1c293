// Package hook is a fixture for the loader: its external test reaches an
// unexported name through export_test.go, and imports a package (user)
// that imports hook, so go test recompiles user against hook's test
// variant.
package hook

// Counter counts calls to Bump.
type Counter struct{ n int }

// New returns a zero counter.
func New() *Counter { return &Counter{} }

// Bump adds one.
func (c *Counter) Bump() { c.n++ }

func count(c *Counter) int { return c.n }
