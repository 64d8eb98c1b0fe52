// Package testbed plays every replicated run as a Scenario (scenario.go):
// the experiments, the narrated hydranet-sim run and every test that
// deploys a replicated service and dials it. A Scenario runs on the paper's
// Figure-3 star, or on its measurement testbed (Section 5): two Pentium/120
// PCs as primary and backup host servers, a 486 PC as the redirector/router,
// and a 486 PC as the client, joined by 10 Mbit/s links, in each of Figure
// 4's four configurations. Extra clients, routers or redirectors join in
// Setup. The runs still built by hand, each for one reason: a replica link
// slower than the star's (TestProbeKeepsQueuedMember,
// TestChainMsgBeforeSYN), a 100 Mbit/s star (TestConnLifecycleAllocBudget),
// the churn pods pinned by testdata/golden_churn.json, and the API examples.
//
// The machine model charges per-packet and per-byte CPU costs calibrated so
// the clean-kernel curve lands in the few-hundred-kB/s range the paper
// reports for this hardware; the relationships between the four curves —
// who wins and by roughly what factor — are produced by the protocol
// mechanics, not by per-case tuning.
package testbed

import (
	"cmp"
	"fmt"
	"time"

	"hydranet"
	"hydranet/internal/ttcp"
)

// Case selects one of the paper's four measurement configurations.
type Case int

// Figure 4's four measurement series.
const (
	// CaseClean: unmodified software, no redirection — the baseline.
	CaseClean Case = iota + 1
	// CaseNoRedirection: HydraNet-FT software installed everywhere but no
	// service replicated; measures the fixed cost of the modified stacks.
	CaseNoRedirection
	// CasePrimaryOnly: the service address belongs to no physical host; the
	// redirector tunnels every packet to a single primary replica;
	// measures the redirection penalty.
	CasePrimaryOnly
	// CasePrimaryBackup: full fault-tolerant mode with the redirector
	// multicasting to a primary and backups synchronized over the
	// acknowledgment channel.
	CasePrimaryBackup
	// CaseFailover: as CasePrimaryBackup, but the machines carry no cost
	// for the HydraNet-FT software: the replicated testbed of the fail-over
	// ablations A1 and A5.
	CaseFailover
)

// String names the case as in the paper's legend.
func (c Case) String() string {
	switch c {
	case CaseClean:
		return "clean kernel"
	case CaseNoRedirection:
		return "no redirection"
	case CasePrimaryOnly:
		return "primary only"
	case CasePrimaryBackup:
		return "primary and backup"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Machine model: CPU costs per packet and per byte.
//
// The 486 figures make the client the end-system bottleneck and the 486
// redirector the path bottleneck once it must process every frame twice
// (in and out), as on the paper's testbed.
const (
	client486Proc    = 300 * time.Microsecond
	client486PerByte = 1300 * time.Nanosecond

	router486Proc    = 250 * time.Microsecond
	router486PerByte = 750 * time.Nanosecond

	pentiumProc    = 150 * time.Microsecond
	pentiumPerByte = 350 * time.Nanosecond

	// Costs of the HydraNet-FT software itself: the redirector-table check
	// in the router's forwarding path and the replicated-port checks in
	// the host-server TCP stack.
	redirectorSWCost = 25 * time.Microsecond
	ftStackCost      = 20 * time.Microsecond
)

// Link parameters: 10 Mbit/s Ethernet-class links.
var testbedLink = hydranet.LinkConfig{
	Rate:       10_000_000,
	Delay:      100 * time.Microsecond,
	MTU:        1500,
	QueueBytes: 32 * 1024,
}

// Config parameterizes one measurement run.
type Config struct {
	Case       Case
	BufLen     int   // ttcp write size ("packet size"); ablation A4 varies it past the MSS
	TotalBytes int   // transfer volume; default 512 KiB
	Seed       int64 // simulation seed
	// Backups is the number of backup replicas in CasePrimaryBackup
	// (default 1, the paper's setup).
	Backups int
	// AckChannelLoss drops that fraction of acknowledgment-channel
	// messages (ablation A3).
	AckChannelLoss float64
	// CPUScale multiplies every machine's CPU costs (robustness checks:
	// the figure's qualitative shape must not depend on the calibration
	// constants). Zero means 1.0.
	CPUScale float64
	// Observe selects the run's observers and artifact files; they attach
	// once the topology stands, before the service registers.
	Observe hydranet.Instruments
	// PcapPath, SeriesPath, ProfilePath and Invariants are the names bench/
	// compiles against; scenario folds them into Observe (DESIGN.md §10) and
	// ignores SeriesPath and ProfilePath, which name no observer.
	PcapPath, SeriesPath, ProfilePath string
	Invariants                        bool
}

// scenario is the Figure-4 run cfg describes: a ttcp transfer, no fault.
func (c Config) scenario() Scenario {
	in := c.Observe
	in.Pcap = cmp.Or(in.Pcap, c.PcapPath)
	in.Invariants = in.Invariants || c.Invariants
	replicas := 1 + cmp.Or(c.Backups, 1)
	switch c.Case {
	case CasePrimaryOnly:
		replicas = 1
	case CaseClean, CaseNoRedirection, CasePrimaryBackup:
	default:
		panic(fmt.Sprintf("testbed: unknown case %d", c.Case))
	}
	in.Scenario = fmt.Sprintf("figure4 %s buf=%d", c.Case, c.BufLen)
	return Scenario{Seed: c.Seed, Observe: in, Testbed: c.Case, Replicas: replicas, CPUScale: c.CPUScale,
		ChainLoss: c.AckChannelLoss, TTCP: ttcp.Params{BufLen: c.BufLen, TotalBytes: cmp.Or(c.TotalBytes, 512<<10)},
		Steps: figure4Steps}
}

// figure4Steps run a transfer until it is done, polling every second.
// Generous ceiling: slow small-packet runs take tens of virtual seconds; a
// wedged run stops here instead of spinning forever.
var figure4Steps = []Step{{After: time.Second, Until: transferred, Limit: 30 * time.Minute}}

// transferred reports whether the run's ttcp transfer is done.
func transferred(r *Run) bool { return r.Done }

// ServiceAddr is the replicated service's virtual address — a host that
// does not physically exist, as in the paper's "primary only" experiment.
var ServiceAddr = hydranet.MustAddr("192.20.225.20")

// ServicePort is the replicated TCP port.
const ServicePort = 5001 // ttcp's traditional port

// RunInfo reports the execution cost of one testbed run, for tracking the
// simulator's own performance (events/sec is the core metric the fast path
// optimizes).
type RunInfo struct {
	Events    uint64        // scheduler events fired
	Frames    uint64        // fabric frames sent, summed over all nodes
	ChainMsgs uint64        // acknowledgment-channel messages sent, summed over all replicas
	Wall      time.Duration // host wall-clock time for the run
	// Violations counts protocol-invariant violations (0 unless the run was
	// monitored).
	Violations int
	// ObserveErr is what attaching or flushing the run's observers reported
	// (an unwritable artifact); the transfer result stands regardless.
	ObserveErr error
}

// RunMeasured executes one ttcp transfer in the given configuration and
// returns the client-side result with the run's execution metrics.
func RunMeasured(cfg Config) (ttcp.Result, RunInfo) {
	r := cfg.scenario().Play()
	return r.Transfer, r.Info()
}

// Info is a run's execution metrics; the frame and chain-message totals
// take a Snapshot of the run's Net.
func (r *Run) Info() RunInfo {
	info := RunInfo{Wall: r.Wall, Events: r.Net.EventsFired(), Violations: r.Violations, ObserveErr: r.ObserveErr}
	for _, h := range r.Net.Snapshot().Hosts {
		info.Frames += h.Frames.Sent
		if h.Manager != nil {
			info.ChainMsgs += h.Manager.ChainMsgsSent
		}
	}
	return info
}

// machines is the CPU cost model of the testbed's three machine kinds.
type machines struct{ client, router, server hydranet.HostConfig }

// machineModel scales the calibrated costs; modified adds the cost of the
// HydraNet-FT software to the router and the servers.
func machineModel(scale float64, modified bool) machines {
	if scale == 0 {
		scale = 1
	}
	mul := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * scale)
	}
	m := machines{
		client: hydranet.HostConfig{ProcDelay: mul(client486Proc), ProcPerByte: mul(client486PerByte)},
		router: hydranet.HostConfig{ProcDelay: mul(router486Proc), ProcPerByte: mul(router486PerByte)},
		server: hydranet.HostConfig{ProcDelay: mul(pentiumProc), ProcPerByte: mul(pentiumPerByte)},
	}
	if modified {
		m.router.ProcDelay += mul(redirectorSWCost)
		m.server.ProcDelay += mul(ftStackCost)
	}
	return m
}

// mesh makes hosts one Ethernet segment, as the testbed is: all machines
// mutually adjacent, and only traffic for redirected (virtual) addresses
// flows through the redirector, which acts as the LAN's gateway for them.
// Return traffic and the acknowledgment channel go host-to-host, as the
// paper notes ("there is no need for redirectors to handle messages
// directed from servers to clients").
func mesh(net *hydranet.Net, link hydranet.LinkConfig, hosts ...*hydranet.Host) {
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			net.Link(hosts[i], hosts[j], link)
		}
	}
	net.AutoRoute()
}

// Figure4Sizes are the paper's x-axis write sizes.
var Figure4Sizes = []int{16, 32, 64, 128, 256, 512, 1024}

// Figure4Cases are the paper's four series in legend order.
var Figure4Cases = []Case{CaseClean, CaseNoRedirection, CasePrimaryOnly, CasePrimaryBackup}
