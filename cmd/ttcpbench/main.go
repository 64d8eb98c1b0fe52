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
	"math"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"hydranet"
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

	// cell is one point: the mean over the -repeat seeds, ± their sample
	// standard deviation when there are several.
	cell := func(size int, c testbed.Case) string {
		kbps := make([]float64, *repeat)
		sum := 0.0
		for r := range kbps {
			jr := byKey[job{size: size, c: c, rep: r}]
			if jr.err != nil {
				return "ERR"
			}
			kbps[r] = jr.kbps
			sum += jr.kbps
		}
		mean := sum / float64(*repeat)
		if *repeat == 1 {
			return fmt.Sprintf("%.0f", mean)
		}
		ss := 0.0
		for _, x := range kbps {
			ss += (x - mean) * (x - mean)
		}
		return fmt.Sprintf("%.1f ± %.1f", mean, math.Sqrt(ss/float64(*repeat-1)))
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "packet size [B]\t")
	for _, c := range testbed.Figure4Cases {
		fmt.Fprintf(tw, "%s\t", c)
	}
	fmt.Fprintln(tw)
	for _, size := range testbed.Figure4Sizes {
		fmt.Fprintf(tw, "%d\t", size)
		for _, c := range testbed.Figure4Cases {
			fmt.Fprintf(tw, "%s\t", cell(size, c))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
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
