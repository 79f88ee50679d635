// Command incast runs one TCP Incast configuration (§4.1) and prints the
// per-run details the figure-level sweep aggregates away: goodput, per
// iteration timings and protocol statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"diablo"
	"diablo/internal/packet"
)

// runFlags are the command-line settings that shape the run.
type runFlags struct {
	senders, block, iterations, minRTOms int
	epoll, tenG, shared                  bool
	ghz                                  float64
	seed                                 uint64
	faults                               string
}

// incastConfig maps the flags onto a run configuration. -10g and -shared each
// pick the ToR switch model, so giving both is an error, not a silent choice.
func incastConfig(f runFlags) (diablo.IncastConfig, error) {
	cfg := diablo.DefaultIncast(f.senders)
	cfg.BlockBytes = f.block
	cfg.Iterations = f.iterations
	cfg.Epoll = f.epoll
	cfg.CPU = diablo.GHz(f.ghz)
	cfg.MinRTO = diablo.Duration(f.minRTOms) * diablo.Millisecond
	cfg.Seed = f.seed
	switch {
	case f.tenG && f.shared:
		return cfg, fmt.Errorf("-10g and -shared each pick the switch model; give at most one")
	case f.tenG:
		cfg.Switch = diablo.TenGigLowLatency("tor", 0)
	case f.shared:
		cfg.Switch = diablo.SharedBufferCommodity("tor", 0)
	}
	if f.faults != "" {
		plan, err := diablo.ParseFaultSpec(cfg.Seed, f.faults)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

func main() {
	senders := flag.Int("senders", 8, "storage servers returning data")
	block := flag.Int("block", 256*1024, "bytes per server per iteration")
	iterations := flag.Int("iterations", 40, "synchronized read iterations")
	epoll := flag.Bool("epoll", false, "use the epoll client instead of pthread")
	tenG := flag.Bool("10g", false, "10 Gbps low-latency switch instead of 1 Gbps shallow-buffer")
	shared := flag.Bool("shared", false, "shared-buffer commodity switch (the real-hardware proxy)")
	ghz := flag.Float64("ghz", 4, "server CPU clock in GHz")
	minRTOms := flag.Int("minrto", 200, "TCP minimum RTO in milliseconds")
	seed := flag.Uint64("seed", 1, "master seed")
	traceDrops := flag.Bool("trace-drops", false, "print a tcpdump-style trace of dropped frames")
	faults := flag.String("faults", "", `fault schedule, e.g. "edgedegrade node=0 at=0 dur=600s loss=0.1 dir=down"`)
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (open in ui.perfetto.dev)")
	manifestOut := flag.String("manifest-out", "", "write a run-manifest JSON (schema diablo/run-manifest/v1)")
	flag.Parse()

	cfg, err := incastConfig(runFlags{
		senders: *senders, block: *block, iterations: *iterations, epoll: *epoll,
		tenG: *tenG, shared: *shared, ghz: *ghz, minRTOms: *minRTOms, seed: *seed, faults: *faults,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}

	var drops *dropLog
	var cluster *diablo.Cluster
	var obsn *diablo.Observation
	cfg.OnCluster = func(c *diablo.Cluster) {
		cluster = c
		if *traceDrops {
			drops = newDropLog(256)
			for i, sw := range c.Tors {
				where := fmt.Sprintf("tor-%d", i)
				sw.OnDrop = func(in int, pkt *packet.Packet) {
					drops.add(dropLine(c.Scheduler().Now(), fmt.Sprintf("%s/in%d", where, in), pkt))
				}
			}
		}
		if *traceOut != "" || *manifestOut != "" {
			obsn = diablo.Observe(c, diablo.ObserveConfig{})
		}
	}

	res, err := diablo.RunIncast(cfg)
	if err == nil && obsn != nil {
		m := obsn.BuildManifest("incast", cfg.Seed, map[string]any{
			"senders":    cfg.Senders,
			"block":      cfg.BlockBytes,
			"iterations": cfg.Iterations,
			"epoll":      cfg.Epoll,
		})
		var note string
		if note, err = obsn.WriteFiles(*traceOut, *manifestOut, m); err == nil {
			fmt.Printf("observed  %s\n", note)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(1)
	}
	fmt.Printf("senders=%d switch=%s cpu=%.1fGHz client=%s minRTO=%dms\n",
		*senders, cfg.Switch.Arch, *ghz, clientName(*epoll), *minRTOms)
	fmt.Printf("goodput   %.1f Mbps (%d bytes over %v)\n", res.GoodputBps/1e6, res.Bytes, res.Elapsed)
	fmt.Printf("loss      %d timeouts, %d fast retransmits, %d retransmitted segments\n",
		res.Timeouts, res.FastRetransmits, res.Retransmits)
	if *faults != "" && cluster != nil {
		fmt.Printf("faults    %d fault drops; %d edges:\n", cluster.FaultDrops(), len(cluster.FaultEdges()))
		for _, e := range cluster.FaultEdges() {
			fmt.Printf("          %v\n", e)
		}
	}
	for i, d := range res.IterTimes {
		fmt.Printf("iter %2d   %v\n", i, d)
	}
	if drops != nil {
		fmt.Printf("\n# dropped frames (last %d; %d older dropped from the ring)\n", len(drops.lines), drops.older)
		fmt.Print(drops.String())
	}
}

// dropLog keeps the last cap(lines) dropped frames as rendered lines, oldest
// first from next once the ring has wrapped.
type dropLog struct {
	lines []string
	next  int
	older uint64 // lines overwritten by newer drops
}

func newDropLog(n int) *dropLog { return &dropLog{lines: make([]string, 0, n)} }

func (l *dropLog) add(line string) {
	if len(l.lines) < cap(l.lines) {
		l.lines = append(l.lines, line)
		return
	}
	l.lines[l.next] = line
	l.next = (l.next + 1) % len(l.lines)
	l.older++
}

// String renders the kept lines in drop order, one per line.
func (l *dropLog) String() string {
	var b strings.Builder
	for i := range l.lines {
		b.WriteString(l.lines[(l.next+i)%len(l.lines)])
		b.WriteByte('\n')
	}
	return b.String()
}

// dropLine renders one dropped frame tcpdump-style: time, switch input port,
// headers and payload size.
func dropLine(at diablo.Time, where string, pkt *packet.Packet) string {
	return fmt.Sprintf("%-12v %-10s drop     %v", at, where, pkt)
}

func clientName(epoll bool) string {
	if epoll {
		return "epoll"
	}
	return "pthread"
}
