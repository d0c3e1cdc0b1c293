// Package unused is the module root of the unused rule's fixture: its
// exports are the public API, never findings, and what it calls counts as
// used.
package unused

import "unused/sub"

// API is the module's public surface; nothing in the module calls it.
func API() string { return sub.Label(sub.Named{}) }
