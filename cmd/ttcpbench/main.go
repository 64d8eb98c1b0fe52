// Command ttcpbench regenerates the paper's Figure 4: ttcp throughput
// against write size for the four testbed configurations (clean kernel, no
// redirection, primary only, primary and backup). With -repeat > 1 each
// point is averaged over several seeds and reported as mean ± std.
//
// Runs fan out across -parallel workers: every run owns its own scheduler,
// so results are bit-identical regardless of worker count.
//
// -invariants monitors every measurement run. The observers that write a
// file (-pcap -spans -series -audit) would cost every point their I/O and
// overwrite one another, so whichever are named attach to one extra run
// instead: primary and backup at 1024-byte writes, the most
// interesting configuration on the wire (tunnel copies plus the ack chain).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hydranet"
	"hydranet/internal/metrics"
	"hydranet/internal/sweep"
	"hydranet/internal/testbed"
)

type job struct {
	size int
	c    testbed.Case
	rep  int
}

type jobResult struct {
	kbps float64
	err  error
	info testbed.RunInfo
}

func main() {
	total := flag.Int("bytes", 512*1024, "bytes transferred per measurement point")
	seed := flag.Int64("seed", 1, "base simulation seed")
	backups := flag.Int("backups", 1, "backup replicas in the primary-and-backup case")
	repeat := flag.Int("repeat", 1, "seeds per point (mean ± std when > 1)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial)")
	observe, startPprof := testbed.ObserverFlags(flag.CommandLine,
		"-invariants monitors every measurement run; the flags that name a file attach to one extra primary-and-backup run (1024-byte writes)")
	flag.Parse()

	fatal := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ttcpbench: %s: %v\n", what, err)
			os.Exit(1)
		}
	}
	stopPprof, err := startPprof()
	fatal("pprof", err)

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

	start := time.Now()
	results := sweep.Map(*parallel, len(jobs), func(i int) jobResult {
		j := jobs[i]
		res, info := testbed.RunMeasured(testbed.Config{
			Case: j.c, BufLen: j.size, TotalBytes: *total,
			Seed: *seed + int64(j.rep), Backups: *backups,
			Observe: hydranet.Instruments{Invariants: observe.Invariants},
		})
		return jobResult{kbps: res.ThroughputKBps(), err: res.Err, info: info}
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
		}
		table.AddRow(row...)
	}
	fmt.Print(table)
	fmt.Println("\nthroughput in kBytes/sec; rows correspond to the paper's x-axis")
	fmt.Printf("swept %d runs in %v\n", len(jobs), wall.Round(time.Millisecond))
	if observe.Invariants {
		totalViolations := 0
		for _, r := range results {
			totalViolations += r.info.Violations
		}
		if totalViolations > 0 {
			fmt.Printf("invariants: %d VIOLATIONS across the sweep\n", totalViolations)
			fatal("pprof", stopPprof())
			os.Exit(1)
		}
		fmt.Println("invariants: clean across the sweep")
	}

	if observe.WritesFiles() {
		res, info := testbed.RunMeasured(testbed.Config{
			Case: testbed.CasePrimaryBackup, BufLen: 1024, TotalBytes: *total,
			Seed: *seed, Backups: *backups, Observe: *observe,
		})
		fatal("observed run", res.Err)
		fatal("observed run", info.ObserveErr)
		fmt.Println("observed one extra primary-and-backup run (1024-byte writes); artifacts written as named")
		if info.Violations > 0 {
			fmt.Printf("invariants: %d VIOLATIONS in the observed run\n", info.Violations)
			fatal("pprof", stopPprof())
			os.Exit(1)
		}
	}

	fatal("pprof", stopPprof())
}
