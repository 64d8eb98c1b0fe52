// Command ttcpbench regenerates the paper's Figure 4: ttcp throughput
// against write size for the four testbed configurations (clean kernel, no
// redirection, primary only, primary and backup). With -repeat > 1 each
// point is averaged over several seeds and reported as mean ± std.
//
// Runs fan out across -parallel workers: every run owns its own scheduler,
// so results are bit-identical regardless of worker count. -json writes a
// machine-readable benchmark record (BENCH_core.json) with events/sec,
// frames/sec and wall time per measurement point, so the simulator's own
// performance is tracked alongside the figures it reproduces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hydranet/internal/metrics"
	"hydranet/internal/prof"
	"hydranet/internal/scope"
	"hydranet/internal/sweep"
	"hydranet/internal/testbed"
)

type job struct {
	size int
	c    testbed.Case
	rep  int
}

type jobResult struct {
	kbps   float64
	err    error
	info   testbed.RunInfo
	allocs uint64 // heap allocations during the run; valid only when serial
}

// The JSON schema lives in internal/scope so hydrascope diff can gate on
// the same structure this command writes.

func main() {
	total := flag.Int("bytes", 512*1024, "bytes transferred per measurement point")
	seed := flag.Int64("seed", 1, "base simulation seed")
	backups := flag.Int("backups", 1, "backup replicas in the primary-and-backup case")
	repeat := flag.Int("repeat", 1, "seeds per point (mean ± std when > 1)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial; also enables allocs/op in -json)")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	pcapPath := flag.String("pcap", "", "additionally capture one primary-and-backup run (1024-byte writes) to this pcap file")
	seriesPath := flag.String("series", "", "additionally export time series of one primary-and-backup run (1024-byte writes) to this file (JSONL, or CSV with a .csv extension)")
	sampleEvery := flag.Duration("sample-every", 0, "telemetry sampling cadence for -series (default 100ms of virtual time)")
	profPath := flag.String("prof", "", "additionally profile one dedicated primary-and-backup run (1024-byte writes) and write the hydraprof profile to this file")
	invariants := flag.Bool("invariants", false, "run the online protocol-invariant monitor in every measurement run; exit 1 on any violation")
	cpuProfile := flag.String("cpuprofile", "", "write a Go runtime CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a Go runtime heap profile to this file at exit")
	flag.Parse()

	stopPprof, err := prof.StartPprof(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttcpbench: pprof:", err)
		os.Exit(1)
	}
	finishPprof := func() {
		if err := stopPprof(); err != nil {
			fmt.Fprintln(os.Stderr, "ttcpbench: pprof:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("ttcp throughput measurements for HydraNet-FT (Figure 4)\n")
	fmt.Printf("transfer volume %d bytes per point, %d run(s) per point, base seed %d, %d worker(s)\n\n",
		*total, *repeat, *seed, *parallel)

	var jobs []job
	for _, size := range testbed.Figure4Sizes {
		for _, c := range testbed.Figure4Cases {
			for r := 0; r < *repeat; r++ {
				jobs = append(jobs, job{size: size, c: c, rep: r})
			}
		}
	}

	serial := *parallel == 1
	start := time.Now()
	results := sweep.Map(*parallel, len(jobs), func(i int) jobResult {
		j := jobs[i]
		var before runtime.MemStats
		if serial {
			runtime.ReadMemStats(&before)
		}
		res, info := testbed.RunMeasured(testbed.Config{
			Case: j.c, BufLen: j.size, TotalBytes: *total,
			Seed: *seed + int64(j.rep), Backups: *backups,
			Invariants: *invariants,
		})
		out := jobResult{kbps: res.ThroughputKBps(), err: res.Err, info: info}
		if serial {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			out.allocs = after.Mallocs - before.Mallocs
		}
		return out
	})
	wall := time.Since(start)

	byKey := make(map[job]jobResult, len(results))
	for i, r := range results {
		byKey[jobs[i]] = r
	}

	header := []string{"packet size [B]"}
	for _, c := range testbed.Figure4Cases {
		header = append(header, c.String())
	}
	table := metrics.NewTable(header...)
	var entries []scope.BenchEntry
	for _, size := range testbed.Figure4Sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, c := range testbed.Figure4Cases {
			var sum metrics.Summary
			failed := false
			for r := 0; r < *repeat; r++ {
				jr := byKey[job{size: size, c: c, rep: r}]
				if jr.err != nil {
					failed = true
					break
				}
				sum.Add(jr.kbps)
			}
			if failed {
				row = append(row, "ERR")
				continue
			}
			if *repeat > 1 {
				row = append(row, sum.String())
			} else {
				row = append(row, fmt.Sprintf("%.0f", sum.Mean()))
			}
			jr := byKey[job{size: size, c: c, rep: 0}]
			e := scope.BenchEntry{
				Case:           c.String(),
				BufLen:         size,
				ThroughputKBps: sum.Mean(),
				Events:         jr.info.Events,
				Frames:         jr.info.Frames,
				WallMS:         float64(jr.info.Wall.Microseconds()) / 1000,
			}
			if s := jr.info.Wall.Seconds(); s > 0 {
				e.EventsPerSec = float64(jr.info.Events) / s
				e.FramesPerSec = float64(jr.info.Frames) / s
			}
			if serial && jr.info.Events > 0 {
				e.AllocsPerEvent = float64(jr.allocs) / float64(jr.info.Events)
			}
			entries = append(entries, e)
		}
		table.AddRow(row...)
	}
	fmt.Print(table)
	fmt.Println("\nthroughput in kBytes/sec; rows correspond to the paper's x-axis")
	fmt.Printf("swept %d runs in %v\n", len(jobs), wall.Round(time.Millisecond))
	if *invariants {
		totalViolations := 0
		for _, r := range results {
			totalViolations += r.info.Violations
		}
		if totalViolations > 0 {
			fmt.Printf("invariants: %d VIOLATIONS across the sweep\n", totalViolations)
			finishPprof()
			os.Exit(1)
		}
		fmt.Println("invariants: clean across the sweep")
	}

	if *pcapPath != "" {
		// One extra, dedicated capture run: capturing inside the sweep
		// would cost every measurement point pcap I/O and produce a file
		// per job. The full-FT 1024-byte configuration is the most
		// interesting one on the wire (tunnel copies plus the ack chain).
		res := testbed.Run(testbed.Config{
			Case: testbed.CasePrimaryBackup, BufLen: 1024, TotalBytes: *total,
			Seed: *seed, Backups: *backups, PcapPath: *pcapPath,
		})
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "ttcpbench: capture run:", res.Err)
			os.Exit(1)
		}
		fmt.Printf("captured primary-and-backup run (1024-byte writes) to %s\n", *pcapPath)
	}

	if *seriesPath != "" {
		// Same dedicated-run pattern as -pcap: sampling inside the sweep
		// would add telemetry cost to every measurement point.
		res := testbed.Run(testbed.Config{
			Case: testbed.CasePrimaryBackup, BufLen: 1024, TotalBytes: *total,
			Seed: *seed, Backups: *backups,
			SeriesPath: *seriesPath, SampleEvery: *sampleEvery,
		})
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "ttcpbench: series run:", res.Err)
			os.Exit(1)
		}
		fmt.Printf("exported primary-and-backup series (1024-byte writes) to %s\n", *seriesPath)
	}

	if *profPath != "" {
		// Same dedicated-run pattern again: profiling inside the sweep would
		// attach collectors to every measurement point.
		res := testbed.Run(testbed.Config{
			Case: testbed.CasePrimaryBackup, BufLen: 1024, TotalBytes: *total,
			Seed: *seed, Backups: *backups, ProfilePath: *profPath,
		})
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "ttcpbench: profile run:", res.Err)
			os.Exit(1)
		}
		fmt.Printf("profiled primary-and-backup run (1024-byte writes) to %s (render with: hydrascope profile %s)\n",
			*profPath, *profPath)
	}

	if *jsonPath != "" {
		bf := scope.BenchFile{
			Description: "HydraNet-FT simulator core performance per Figure-4 case",
			TotalBytes:  *total,
			Seed:        *seed,
			Parallel:    *parallel,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			WallMS:      float64(wall.Microseconds()) / 1000,
			Entries:     entries,
		}
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttcpbench:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ttcpbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	finishPprof()
}
