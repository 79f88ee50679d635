package diablo

import (
	"os"
	"strings"
	"testing"
)

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"fig2", "table1", "table2", "proto",
		"fig6a", "fig6b", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "perf",
		"faultmc", "faultincast",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("registry missing %q", id)
		}
	}
	if len(have) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(have), len(want))
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestStaticExperimentsRender(t *testing.T) {
	for _, id := range []string{"fig2", "table1", "table2", "proto"} {
		out, err := RunExperiment(id, ExperimentOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if strings.TrimSpace(out.String()) == "" {
			t.Fatalf("%s rendered empty", id)
		}
	}
}

func TestFacadeQuickstart(t *testing.T) {
	// The README quickstart, as a test: the public API must be sufficient
	// to build a cluster and run application code.
	cluster, err := NewCluster(DefaultClusterConfig(TopologyParams{
		ServersPerRack: 2, RacksPerArray: 1, Arrays: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	var got Msg
	cluster.Machine(0).Spawn("server", func(th *Thread) {
		sock, err := th.UDPSocket(7000)
		if err != nil {
			return
		}
		_, _, msg, err := sock.RecvFrom(th)
		if err != nil {
			return
		}
		got = msg
	})
	cluster.Machine(1).Spawn("client", func(th *Thread) {
		sock, err := th.UDPSocket(0)
		if err != nil {
			return
		}
		_ = sock.SendTo(th, Addr{Node: 0, Port: 7000}, 64, Msg{Kind: 1, A: 42})
	})
	cluster.RunUntil(Second)
	if want := (Msg{Kind: 1, A: 42}); got != want {
		t.Fatalf("msg = %+v, want %+v", got, want)
	}
}

func TestExperimentSmallRuns(t *testing.T) {
	// One dynamic experiment end-to-end through the registry at tiny scale:
	// a curve per system, a point per sender count.
	out, err := RunExperiment("fig6a", ExperimentOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 3 {
		t.Fatalf("fig6a series = %d, want 3", len(out.Series))
	}
	for _, s := range out.Series {
		if s.Len() != 13 || s.X[0] != 1 || s.X[12] != 24 {
			t.Fatalf("series %q has x = %v, want the 13 sender counts 1..24", s.Name, s.X)
		}
	}
}

// A negative count is an error naming the field, never a silent default, and
// so is a warmup that would discard every sample of a figure's clients.
func TestExperimentParametersAreErrors(t *testing.T) {
	for _, c := range []struct {
		name, id, field string
		opts            ExperimentOptions
	}{
		{"fig6a iterations", "fig6a", "Iterations", ExperimentOptions{Iterations: -2}},
		{"fig8 requests", "fig8", "Requests", ExperimentOptions{Requests: -1}},
		{"fig8 warmup", "fig8", "warmup", ExperimentOptions{Requests: 20}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := RunExperiment(c.id, c.opts)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("err = %v, want an error naming %s", err, c.field)
			}
		})
	}
}

// TestFigureGoldens pins the reduced-scale figures and fault experiments byte
// for byte: each is a campaign preset and must render exactly the recorded
// text at the default seed, the incast figures at 2 iterations per point and
// the memcached ones at 20 requests per client — fig8 at 40, since it
// discards each client's first 20 samples as warmup; faultmc runs 5 requests
// per client and faultincast 2 iterations.
func TestFigureGoldens(t *testing.T) {
	incast, memcached := ExperimentOptions{Iterations: 2}, ExperimentOptions{Requests: 20}
	for _, c := range []struct {
		id   string
		opts ExperimentOptions
	}{
		{"fig6a", incast}, {"fig6b", incast}, {"fig8", ExperimentOptions{Requests: 40}}, {"fig9", memcached},
		{"fig10", memcached}, {"fig11", memcached}, {"fig12", memcached}, {"fig13", memcached},
		{"fig14", memcached}, {"fig15", memcached},
		{"faultmc", ExperimentOptions{Requests: 5}}, {"faultincast", ExperimentOptions{Iterations: 2}},
	} {
		t.Run(c.id, func(t *testing.T) {
			out, err := RunExperiment(c.id, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			path := "testdata/figures/" + c.id + ".golden"
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}
