// Package other calls into sub from another package's non-test file.
package other

import "unused/sub"

// Twice is called by nobody: a finding in other, not in sub.
func Twice() int { return 2 * sub.UsedElsewhere() } // want "exported func unused/other.Twice"
