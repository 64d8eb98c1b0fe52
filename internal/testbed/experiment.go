package testbed

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"

	"hydranet"
	"hydranet/internal/ttcp"
)

// Sweep says how to run one experiment: over which seeds, on how many
// workers, with which of its defaults overridden and which observers.
type Sweep struct {
	Seed     int64    // the first seed
	Seeds    int      // seeds per point, from Seed up; 0 means 1
	Parallel int      // concurrent simulations; 0 means 1
	Bytes    int      // if nonzero, the transfer volume of fig4, a2, a3 and a4
	Loss     *float64 // if set, the link loss of a1 and a1b
	// Observe attaches to every run. Each artifact path gets the run's tag
	// (a1's threshold 3 writes run-t3.pcap) and, over several seeds, -s<seed>.
	Observe hydranet.Instruments
}

// ExperimentNames are RunExperiment's experiments in EXPERIMENTS.md order.
var ExperimentNames = []string{"fig4", "a1", "a1b", "a2", "a3", "a4", "a5"}

var experiments = map[string]func(Sweep) *Table{
	"fig4": figure4, "a1": failoverLatency, "a1b": falsePositives,
	"a2": chainDepth, "a3": ackChannelLoss, "a4": fragmentation, "a5": congestionEviction,
}

// A Table is one EXPERIMENTS.md table, Values[row][column][seed], with
// every failed check, invariant violation and observer error, each naming
// its run.
type Table struct {
	Title    string      `json:"title"`
	Head     string      `json:"head"` // the row labels' heading
	Rows     []string    `json:"rows"`
	Columns  []string    `json:"columns"`
	Seeds    []int64     `json:"seeds"`
	Values   [][][]value `json:"values"`
	Failures []string    `json:"failures,omitempty"`
	// Violations counts protocol-invariant violations over every run.
	Violations int `json:"violations"`

	formats []string            // a printf verb per column; "" counts an outcome over seeds
	points  []point             // row by row, each filling the next columns of its row
	derive  func(v [][][]value) // if set, fills the columns no point fills
}

// A value is one run's reading of one column: 1 or 0 in an outcome column,
// NaN (JSON null) for none, such as a stranded transfer's duration.
type value float64

func (v value) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(v)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(v))
}

// A point is one scenario, played at every seed, and what its table reads
// off each run: its values and the check it failed.
type point struct {
	what, tag string // "threshold 3" in failures, "-t3" in artifact paths
	sc        Scenario
	read      func(*Run) ([]value, string)
}

// A reading is one run of a point: its values, the check it failed, and
// what its observers reported.
type reading struct {
	vals       []value
	fail       string
	violations int
	err        error
}

// RunExperiment runs every point of the named experiment at every seed.
func RunExperiment(name string, s Sweep) (*Table, error) {
	build, ok := experiments[name]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	t := build(s)
	for i := range max(s.Seeds, 1) {
		t.Seeds = append(t.Seeds, s.Seed+int64(i))
	}
	// Every run owns its scheduler, network and frame pool, so the worker
	// count decides which thread runs a simulation, never what it computes.
	n, perRow := len(t.Seeds), len(t.points)/len(t.Rows)
	width := len(t.Columns) / perRow // the columns one point fills
	readings := make([]reading, len(t.points)*n)
	workers := make(chan struct{}, max(s.Parallel, 1))
	var wg sync.WaitGroup
	for i := range readings {
		p, seed := t.points[i/n], t.Seeds[i%n]
		in := s.Observe.Suffixed(p.tag)
		if n > 1 {
			in = in.Suffixed(fmt.Sprintf("-s%d", seed))
		}
		wg.Add(1)
		workers <- struct{}{}
		go func() {
			defer wg.Done()
			sc := p.sc // runs at other seeds share the point
			in.Scenario = sc.Observe.Scenario
			sc.Seed, sc.Observe = seed, in
			r, vals, fail := sc.Play(), make([]value, width), ""
			if r.Session != nil { // the observers attached and the run ran
				vals, fail = p.read(r)
			}
			readings[i] = reading{vals, fail, r.Violations, r.ObserveErr}
			<-workers
		}()
	}
	wg.Wait()

	t.Values = make([][][]value, len(t.Rows))
	for r := range t.Values {
		for range t.Columns {
			t.Values[r] = append(t.Values[r], make([]value, n))
		}
	}
	for i, rd := range readings {
		what := t.points[i/n].what
		if n > 1 {
			what += fmt.Sprintf(", seed %d", t.Seeds[i%n])
		}
		if rd.err != nil { // the run's observers failed: it has no values
			rd.fail = rd.err.Error()
			for k := range rd.vals {
				rd.vals[k] = value(math.NaN())
			}
		}
		if rd.fail != "" {
			t.Failures = append(t.Failures, what+": "+rd.fail)
		}
		if rd.violations > 0 {
			t.Failures = append(t.Failures, fmt.Sprintf("%s: %d invariant violations", what, rd.violations))
			t.Violations += rd.violations
		}
		p := i / n
		for k, v := range rd.vals {
			t.Values[p/perRow][p%perRow*width+k][i%n] = v
		}
	}
	if t.derive != nil {
		t.derive(t.Values)
	}
	return t, nil
}

// WriteText prints the table as EXPERIMENTS.md shows it. A cell over one
// seed is that seed's value; over several, median (min–max), the median of
// an even count being the mean of the middle two. An outcome cell counts the
// seeds that saw it.
func (t *Table) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "%s; seeds %v\n\n", t.Title, t.Seeds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s\t", t.Head)
	for _, c := range t.Columns {
		fmt.Fprintf(tw, "%s\t", c)
	}
	for r, label := range t.Rows {
		fmt.Fprintf(tw, "\n%s\t", label)
		for c, vals := range t.Values[r] {
			fmt.Fprintf(tw, "%s\t", cell(t.formats[c], vals))
		}
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

func cell(format string, vals []value) string {
	var got []float64
	for _, v := range vals {
		if !math.IsNaN(float64(v)) && (format != "" || v == 1) {
			got = append(got, float64(v))
		}
	}
	switch {
	case format == "":
		return fmt.Sprintf("%d/%d", len(got), len(vals))
	case len(got) == 0:
		return "-"
	case len(vals) == 1:
		return fmt.Sprintf(format, got[0])
	}
	sort.Float64s(got)
	m := len(got) / 2
	median := got[m]
	if len(got)%2 == 0 {
		median = (got[m-1] + got[m]) / 2
	}
	return fmt.Sprintf(format+" ("+format+"–"+format+")", median, got[0], got[len(got)-1])
}

// throughput reads a transfer's kB/s; a transfer error fails the point.
func throughput(r *Run) ([]value, string) {
	if r.Transfer.Err != nil {
		return []value{value(math.NaN())}, "transfer failed: " + r.Transfer.Err.Error()
	}
	return []value{value(r.Transfer.ThroughputKBps())}, ""
}

// thresholds is a table with a row per detection threshold, each cfg's
// fail-over scenario at that threshold, titled by the link loss: def, or
// the sweep's.
func thresholds(t *Table, s Sweep, def float64, ths []int, cfg FailoverConfig, read func(*Run) ([]value, string)) *Table {
	cfg.Loss = def
	if s.Loss != nil {
		cfg.Loss = *s.Loss
	}
	t.Title, t.Head = fmt.Sprintf("%s, link loss %g", t.Title, cfg.Loss), "threshold"
	for _, th := range ths {
		t.Rows = append(t.Rows, strconv.Itoa(th))
		cfg.Threshold = th
		t.points = append(t.points, point{fmt.Sprintf("threshold %d", th), fmt.Sprintf("-t%d", th), cfg.scenario(), read})
	}
	return t
}

// ms is d in milliseconds; zero, which means never, is no value.
func ms(d time.Duration) value {
	if d == 0 {
		return value(math.NaN())
	}
	return value(d.Seconds() * 1000)
}

// caseTags name the Figure-4 cases in artifact paths.
var caseTags = [...]string{CaseClean: "clean", CaseNoRedirection: "noredir", CasePrimaryOnly: "primary", CasePrimaryBackup: "ft"}

// writeSizes is a table of kB/s against write size, a column per case.
func writeSizes(title, head string, total int, sizes []int, cases []Case) *Table {
	t := &Table{Title: fmt.Sprintf("%s, %d bytes per point", title, total), Head: head}
	for _, c := range cases {
		t.Columns, t.formats = append(t.Columns, c.String()), append(t.formats, "%.0f")
	}
	for _, size := range sizes {
		t.Rows = append(t.Rows, strconv.Itoa(size))
		for _, c := range cases {
			t.points = append(t.points, point{fmt.Sprintf("%s at %d B", c, size), fmt.Sprintf("-%s-%d", caseTags[c], size),
				Config{Case: c, BufLen: size, TotalBytes: total}.scenario(), throughput})
		}
	}
	return t
}

func figure4(s Sweep) *Table {
	return writeSizes("Figure 4: ttcp throughput [kB/s] against write size", "packet size [B]",
		cmp.Or(s.Bytes, 512<<10), Figure4Sizes, Figure4Cases)
}

func fragmentation(s Sweep) *Table {
	return writeSizes("A4: ttcp throughput [kB/s] for writes beyond the MTU", "write size [B]",
		cmp.Or(s.Bytes, 256<<10), []int{1024, 1460, 2048, 2920}, []Case{CaseClean, CasePrimaryBackup})
}

func failoverLatency(s Sweep) *Table {
	return thresholds(&Table{
		Title: "A1: detect (crash → reconfiguration) and stall (the client's longest wait for bytes across the crash) " +
			"against detection threshold, primary of 2 crashed 500 ms in",
		Columns: []string{"detect [ms]", "stall [ms]", "suspicions", "false reconfigs"},
		formats: []string{"%.0f", "%.0f", "%.0f", "%.0f"},
	}, s, 0, []int{1, 2, 3, 4, 6, 8}, FailoverConfig{}, func(r *Run) ([]value, string) {
		fail := ""
		switch {
		case r.Err != nil:
			fail = "client connection failed: " + r.Err.Error()
		case r.Detected == 0:
			fail = "the crash was never detected"
		case r.Stall == 0:
			fail = "the client read nothing after the crash"
		}
		return []value{ms(r.Detected), ms(r.Stall), value(r.Suspicions), value(r.FalseReconfigs)}, fail
	})
}

func falsePositives(s Sweep) *Table {
	return thresholds(&Table{
		Title:   "A1b: false positives with no crash",
		Columns: []string{"spurious suspicions", "wrongful removals"},
		formats: []string{"%.0f", "%.0f"},
	}, s, 0.02, []int{1, 2, 4, 8}, FailoverConfig{NoCrash: true}, func(r *Run) ([]value, string) {
		fail := ""
		if r.FalseReconfigs != 0 {
			fail = fmt.Sprintf("the probe allowed %d wrongful removals", r.FalseReconfigs)
		}
		return []value{value(r.Suspicions), value(r.FalseReconfigs)}, fail
	})
}

func chainDepth(s Sweep) *Table {
	total := cmp.Or(s.Bytes, 256<<10)
	t := &Table{
		Title:   fmt.Sprintf("A2: chain depth, 1024-byte writes, %d bytes per point", total),
		Head:    "backups",
		Columns: []string{"throughput [kB/s]", "vs primary-only", "chain messages per kB"},
		formats: []string{"%.0f", "%.2f", "%.2f"},
		derive: func(v [][][]value) {
			for r := range v {
				for i := range v[r][1] {
					v[r][1][i] = v[r][0][i] / v[0][0][i]
				}
			}
		},
	}
	for n := range 4 {
		cfg := Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: total, Backups: n}
		if n == 0 {
			cfg.Case = CasePrimaryOnly
		}
		t.Rows = append(t.Rows, strconv.Itoa(n))
		t.points = append(t.points, point{fmt.Sprintf("%d backups", n), fmt.Sprintf("-b%d", n), cfg.scenario(),
			func(r *Run) ([]value, string) {
				tput, fail := throughput(r)
				return append(tput, 0, value(float64(r.Info().ChainMsgs)/(float64(total)/1e3))), fail
			}})
	}
	return t
}

func ackChannelLoss(s Sweep) *Table {
	total := cmp.Or(s.Bytes, 256<<10)
	t := &Table{
		Title:   fmt.Sprintf("A3: acknowledgment-channel loss, 1 backup, 1024-byte writes, %d bytes per point", total),
		Head:    "channel loss",
		Columns: []string{"throughput [kB/s]", "connections lost", "client RTOs"},
		formats: []string{"%.1f", "", "%.0f"},
	}
	for _, p := range []float64{0, 0.1, 0.3, 0.6} {
		pct := fmt.Sprintf("%.0f %%", p*100)
		t.Rows = append(t.Rows, pct)
		t.points = append(t.points, point{"channel loss " + pct, fmt.Sprintf("-l%.0f", p*100),
			Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: total, AckChannelLoss: p}.scenario(),
			func(r *Run) ([]value, string) {
				// A client that exhausts its retries is the trade-off measured here.
				if r.Transfer.Err != nil {
					return []value{value(math.NaN()), 1, value(math.NaN())}, ""
				}
				return []value{value(r.Transfer.ThroughputKBps()), 0, value(r.Transfer.Stats.RTOEvents)}, ""
			}})
	}
	return t
}

func congestionEviction(Sweep) *Table {
	t := &Table{
		Title:   "A5: congestion eviction, the backup's acknowledgment channel dead 200 ms into 524288 bytes, threshold 2",
		Head:    "policy",
		Columns: []string{"completed", "transfer [s]", "evictions"},
		formats: []string{"", "%.2f", "%.0f"},
	}
	for _, strikes := range []int{0, 2, 4} {
		label, tag := "off", "-off"
		if strikes > 0 {
			label, tag = fmt.Sprintf("evict after %d strikes", strikes), fmt.Sprintf("-k%d", strikes)
		}
		t.Rows = append(t.Rows, label)
		// The backup's acknowledgment channel dies mid-transfer (severe
		// congestion: the host is alive but stalls the chain). Without the
		// policy the transfer strands; that is this experiment's data, not a
		// failure.
		sc := Scenario{Observe: hydranet.Instruments{Scenario: fmt.Sprintf("congestion eviction strikes=%d", strikes)},
			Testbed: CaseFailover, Replicas: 2, Threshold: 2, Strikes: strikes,
			TTCP: ttcp.Params{BufLen: 1024, TotalBytes: 512 << 10}, Steps: []Step{
				{After: 200 * time.Millisecond}, {After: time.Second, Until: transferred, Limit: 200*time.Millisecond + 20*time.Minute}},
			Faults: []Fault{{At: 200 * time.Millisecond, Kind: Silence, Replica: 1}}}
		t.points = append(t.points, point{"policy " + label, tag, sc, func(r *Run) ([]value, string) {
			done, elapsed := value(0), value(math.NaN())
			if r.Done && r.Transfer.Err == nil {
				done, elapsed = 1, value(r.Transfer.Elapsed().Seconds())
			}
			return []value{done, elapsed, value(r.Net.Snapshot().Redirectors[0].Mgmt.CongestionEvictions)}, ""
		}})
	}
	return t
}
