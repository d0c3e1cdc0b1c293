package hook_test

import (
	"exporthook/hook"
	"exporthook/user"
)

// bumpedTwice hands a Counter through user, which go test recompiles
// against hook's test variant, and reads it back through the test-only
// hook Count. It imports no "testing", so loading this module type-checks
// no standard package from source.
func bumpedTwice() bool {
	c := hook.New()
	user.BumpTwice(c)
	return hook.Count(c) == 2
}
