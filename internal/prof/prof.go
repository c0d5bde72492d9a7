// Package prof wires the runtime/pprof CPU and heap profilers behind
// cmd/paperfig's -cpuprofile/-memprofile flags, mirroring the semantics of
// `go test`'s flags of the same names: the CPU profile covers the whole
// run, and the heap profile is a single snapshot taken after a final
// garbage collection so it reflects live steady-state memory, not
// transient garbage.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins profiling per the two paths; either may be empty to disable
// that profile. It returns a stop function that must run before the process
// exits (defer it in main): stop ends the CPU profile and writes the heap
// snapshot. Errors opening or starting either profile are returned
// immediately with nothing left running.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof: heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // snapshot live memory, as `go test -memprofile` does
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prof: heap profile:", err)
			}
		}
	}, nil
}
