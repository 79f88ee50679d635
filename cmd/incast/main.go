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

// runFlags are the command-line settings: the run's shape, and what to
// record of it.
type runFlags struct {
	senders, block, iterations, minRTOms int
	epoll, tenG, shared                  bool
	ghz                                  float64
	seed                                 uint64
	faults                               string
	traceDrops                           bool
	traceOut, manifestOut                string
}

// parseFlags parses the command line; an argument left after the flags is an
// error naming it, never ignored.
func parseFlags(args []string) (runFlags, error) {
	var f runFlags
	fs := flag.NewFlagSet("incast", flag.ExitOnError)
	fs.IntVar(&f.senders, "senders", 8, "storage servers returning data")
	fs.IntVar(&f.block, "block", 256*1024, "bytes per server per iteration")
	fs.IntVar(&f.iterations, "iterations", 40, "synchronized read iterations")
	fs.BoolVar(&f.epoll, "epoll", false, "use the epoll client instead of pthread")
	fs.BoolVar(&f.tenG, "10g", false, "10 Gbps low-latency switch instead of 1 Gbps shallow-buffer")
	fs.BoolVar(&f.shared, "shared", false, "shared-buffer commodity switch (the real-hardware proxy)")
	fs.Float64Var(&f.ghz, "ghz", 4, "server CPU clock in GHz")
	fs.IntVar(&f.minRTOms, "minrto", 200, "TCP minimum RTO in milliseconds")
	fs.Uint64Var(&f.seed, "seed", 1, "master seed")
	fs.BoolVar(&f.traceDrops, "trace-drops", false, "print a tcpdump-style trace of dropped frames")
	fs.StringVar(&f.faults, "faults", "", `fault schedule, e.g. "edgedegrade node=0 at=0 dur=600s loss=0.1 dir=down"`)
	fs.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace-event JSON of the run (open in ui.perfetto.dev)")
	fs.StringVar(&f.manifestOut, "manifest-out", "", "write a run-manifest JSON (schema diablo/run-manifest/v1)")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		return f, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return f, nil
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
	f, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}
	cfg, err := incastConfig(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(2)
	}

	var drops *dropLog
	var cluster *diablo.Cluster
	var obsn *diablo.Observation
	cfg.OnCluster = func(c *diablo.Cluster) {
		cluster = c
		if f.traceDrops {
			drops = newDropLog(256)
			for i, sw := range c.Tors {
				where := fmt.Sprintf("tor-%d", i)
				sw.OnDrop = func(in int, pkt *packet.Packet) {
					drops.add(dropLine(c.Scheduler().Now(), fmt.Sprintf("%s/in%d", where, in), pkt))
				}
			}
		}
		if f.traceOut != "" || f.manifestOut != "" {
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
		if note, err = obsn.WriteFiles(f.traceOut, f.manifestOut, m); err == nil {
			fmt.Printf("observed  %s\n", note)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "incast:", err)
		os.Exit(1)
	}
	fmt.Printf("senders=%d switch=%s cpu=%.1fGHz client=%s minRTO=%dms\n",
		f.senders, cfg.Switch.Arch, f.ghz, clientName(f.epoll), f.minRTOms)
	fmt.Printf("goodput   %.1f Mbps (%d bytes over %v)\n", res.GoodputBps/1e6, res.Bytes, res.Elapsed)
	fmt.Printf("loss      %d timeouts, %d fast retransmits, %d retransmitted segments\n",
		res.Timeouts, res.FastRetransmits, res.Retransmits)
	if f.faults != "" && cluster != nil {
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
