// Package neg is unusedexport testdata: every exported declaration here has
// a non-test caller or an exemption, so nothing is reported.
package neg

import "fmt"

// Shape is implemented by Square, so Area needs no caller of its own.
type Shape interface{ Area() int }

// Square implements Shape, and fmt.Stringer from an import.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func (s Square) String() string { return fmt.Sprint(s.Side) }

var _ Shape = Square{}

// Err is an error: Error satisfies error, and errors calls Is and Unwrap
// through anonymous interfaces.
type Err struct{ cause error }

func (e *Err) Error() string { return "neg: " + e.cause.Error() }

func (e *Err) Is(target error) bool { return target == e.cause }

func (e *Err) Unwrap() error { return e.cause }

// Wrap is called from a second package.
func Wrap(cause error) error { return &Err{cause: Local(cause)} }

// Local is called from this package's non-test code.
func Local(err error) error { return err }
