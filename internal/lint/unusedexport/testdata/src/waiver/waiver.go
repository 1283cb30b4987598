// Package waiver is unusedexport testdata: unused exports waived on their
// line or the line above are not reported.
package waiver

// Ledger is called only by a test-only benchmark package.
func Ledger() {} //lint:unusedexport the perf ledger calls it

// Printed is printed only by an Example.
//
//lint:unusedexport an Example prints it
func Printed() {}
