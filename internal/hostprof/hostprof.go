// Package hostprof gives the command-line tools their -cpuprofile and
// -memprofile flags: host CPU and heap profiles in runtime/pprof format,
// for `go tool pprof`. Profiling changes no output of the command it
// wraps; it only writes the named files.
package hostprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile file names a command was given.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a host CPU profile of the run to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a host heap profile to this file when the run ends")
	return f
}

// Start begins CPU profiling if -cpuprofile was given. The returned stop
// ends it and writes the heap profile if -memprofile was given; call it
// once, when the command's work is done. Errors from stop go to stderr:
// a profile that cannot be written does not change the command's result.
func (f *Flags) Start() (stop func(), err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			report(cpu.Close())
		}
		if f.mem != "" {
			report(writeHeap(f.mem))
		}
	}, nil
}

func writeHeap(name string) error {
	out, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC() // the profile shows live heap as of the last GC
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func report(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
	}
}
