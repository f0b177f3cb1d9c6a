// Package second stands for the second module, every function of which
// is a root.
package second

import "reach/internal/lib"

func Use() { lib.ForSecond() }
