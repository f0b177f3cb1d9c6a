//go:build !amd64

package markov

import "testing"

// eachKernel runs f under every step kernel this machine can run; off
// amd64 that is the Go kernel alone.
func eachKernel(t *testing.T, f func(t *testing.T)) { t.Run("go", f) }
