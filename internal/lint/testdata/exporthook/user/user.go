// Package user imports hook, so hook's external test, which imports both,
// sees user recompiled against hook's test variant.
package user

import "exporthook/hook"

// BumpTwice bumps c twice.
func BumpTwice(c *hook.Counter) {
	c.Bump()
	c.Bump()
}
