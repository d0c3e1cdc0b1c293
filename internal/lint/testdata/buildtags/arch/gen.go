//go:build ignore

// gen.go is run by hand (go run gen.go); it is a different package, so
// type-checking it with arch.go fails.
package main

func main() {}
