// Package sub declares the exports the unused rule judges.
package sub

// Namer is an interface a method can satisfy without being called by name.
type Namer interface{ Name() string }

// Named satisfies Namer.
type Named struct{}

// Name is called only through Namer, which Uses does not see.
func (Named) Name() string { return "named" }

// MarshalText satisfies encoding.TextMarshaler, an interface of a package
// the module imports.
func (Named) MarshalText() ([]byte, error) { return []byte("named"), nil }

// Shout is asked for by no interface and called by nobody.
func (Named) Shout() string { return "NAMED" } // want "exported method \\(unused/sub.Named\\).Shout is referenced by no non-test file"

// Label is called by the root package.
func Label(n Namer) string { return n.Name() }

// UsedElsewhere is called by package other.
func UsedElsewhere() int { return 1 }

// UsedByMain is called by a main package.
const UsedByMain = 2

// TestsOnly is called only by this package's tests.
func TestsOnly() int { return 3 } // want "exported func unused/sub.TestsOnly is referenced by no non-test file"

// Limit is referenced by nobody.
var Limit = 4 // want "exported var unused/sub.Limit"

// Kept is referenced by nobody, and says why it stays.
// lint:allow unused the fixture's directive row
func Kept() {}
