// Command tool is a main package: it exports to nobody, so its own exports
// are never findings, and what it uses counts as used. It imports no
// package that makes the loader type-check much of the standard library.
package main

import (
	"encoding"

	"unused/sub"
)

// Exported is never called, but a main package's exports are not findings.
func Exported() {}

var _ encoding.TextUnmarshaler = nil

func main() { println(sub.UsedByMain) }
