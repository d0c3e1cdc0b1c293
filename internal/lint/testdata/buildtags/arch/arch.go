// Package arch is a build-constraint fixture: lanes has one declaration per
// architecture, and gen.go is a generator go build never compiles. The
// loader must type-check exactly the files go build would.
package arch

// Width is the vector width of the platform this package was built for.
func Width() int { return lanes }
