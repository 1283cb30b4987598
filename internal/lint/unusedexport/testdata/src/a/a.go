// Package a is unusedexport testdata: no non-test file references any
// exported declaration here, so every one of them is reported.
package a

// Func has no caller.
func Func() {} // want `exported a\.Func is referenced by no non-test file`

// Type is named only by its own methods' receivers.
type Type struct{} // want `exported a\.Type is referenced`

// Method has no caller.
func (*Type) Method() {} // want `exported a\.Type\.Method is referenced`

// Var and Const are never read.
var Var = 1 // want `exported a\.Var is referenced`

const Const = 2 // want `exported a\.Const is referenced`

// Recurse calls only itself.
func Recurse(n int) int { // want `exported a\.Recurse is referenced`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// list is used, but its exported method is not.
type list struct{ n int }

func (l list) Len() int { return l.n } // want `exported a\.list\.Len is referenced`

var _ = list{}
