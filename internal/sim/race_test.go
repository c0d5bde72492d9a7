//go:build race

package sim

// The race detector's instrumentation allocates on its own.
func init() { raceBuild = true }
