// Package caller is unusedexport testdata: the second package whose
// non-test code keeps neg.Wrap alive.
package caller

import "appfit/internal/lint/unusedexport/testdata/src/neg"

var _ = neg.Wrap(nil)
