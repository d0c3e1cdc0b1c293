package hook

// Count is the test-only hook the external test calls.
var Count = count
