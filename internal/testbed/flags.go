package testbed

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"

	"hydranet"
)

// ObserverFlags registers, once for both of hydranet-sim's flag sets, the
// flags that select a run's observers. After fs is parsed, in holds what
// they asked for and startPprof starts the Go runtime profiles, returning
// their stop.
func ObserverFlags(fs *flag.FlagSet) (in *hydranet.Instruments, startPprof func() (stop func() error, err error)) {
	in = new(hydranet.Instruments)
	fs.StringVar(&in.Pcap, "pcap", "", "capture every frame (plus pre-encap tunnel copies) to this pcap file")
	fs.StringVar(&in.Series, "series", "", "export sampled time series to this file as JSON lines")
	fs.DurationVar(&in.SampleEvery, "sample-every", 0, "telemetry sampling cadence for -series (default 100ms of virtual time)")
	fs.BoolVar(&in.Invariants, "invariants", false, "run the online protocol-invariant monitor; exit 1 on any violation")
	fs.StringVar(&in.Audit, "audit", "", "write the invariant audit report as JSON to this file (implies -invariants); inspect with hydrascope audit")
	cpu := fs.String("cpuprofile", "", "write a Go runtime CPU profile to this file")
	mem := fs.String("memprofile", "", "write a Go runtime heap profile to this file at exit")
	return in, func() (func() error, error) { return startRuntimeProfiles(*cpu, *mem) }
}

// startRuntimeProfiles starts the Go runtime profilers behind -cpuprofile/-memprofile:
// host-level profiling of the simulator itself. Either path may be empty.
// The returned stop function ends the CPU profile and writes the heap
// profile; call it before the process exits (os.Exit skips defers). The
// heap profile records every allocation, not the runtime's default sample
// of one per 512 KiB, so its alloc_objects counts are exact per call site.
func startRuntimeProfiles(cpuPath, memPath string) (stop func() error, err error) {
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // materialize up-to-date heap statistics
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
		return nil
	}, nil
}
