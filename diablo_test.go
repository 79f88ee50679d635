package diablo

import (
	"encoding/json"
	"os"
	"path/filepath"
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

	var got any
	cluster.Machine(0).Spawn("server", func(th *Thread) {
		sock, err := th.UDPSocket(7000)
		if err != nil {
			return
		}
		_, _, payload, err := sock.RecvFrom(th)
		if err != nil {
			return
		}
		got = payload
	})
	cluster.Machine(1).Spawn("client", func(th *Thread) {
		sock, err := th.UDPSocket(0)
		if err != nil {
			return
		}
		_ = sock.SendTo(th, Addr{Node: 0, Port: 7000}, 64, "hello")
	})
	cluster.RunUntil(Second)
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
}

func TestExperimentSmallRuns(t *testing.T) {
	// One dynamic experiment end-to-end through the registry at tiny scale.
	out, err := RunExperiment("fig6a", ExperimentOptions{
		Sweep: Sweep{Senders: []int{1, 4}, Iterations: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 3 {
		t.Fatalf("fig6a series = %d, want 3", len(out.Series))
	}
	for _, s := range out.Series {
		if s.Len() != 2 {
			t.Fatalf("series %q has %d points, want 2", s.Name, s.Len())
		}
	}
}

func TestObservedExperimentWritesArtifacts(t *testing.T) {
	// The -trace-out / -manifest-out path end to end through the registry:
	// a graceful-degradation experiment with observation attached must write
	// a loadable Chrome trace and a run manifest carrying the degradation.
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	manifestPath := filepath.Join(dir, "manifest.json")
	out, err := RunExperiment("faultincast", ExperimentOptions{
		Sweep:       Sweep{Iterations: 2},
		TraceOut:    tracePath,
		ManifestOut: manifestPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out.Notes, "\n")
	if !strings.Contains(joined, "observed faulted run") {
		t.Fatalf("observation note missing:\n%s", joined)
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	// The faulted run's one trace carries both its app spans (one per
	// iteration) and its fault edges.
	iterations, faults := 0, 0
	for _, ev := range tf.TraceEvents {
		switch {
		case ev["ph"] == "X" && ev["cat"] == "iteration":
			iterations++
		case ev["ph"] == "i" && ev["cat"] == "fault":
			faults++
		}
	}
	if iterations != 2 || faults == 0 {
		t.Fatalf("trace holds %d iteration spans (want 2) and %d fault instants (want > 0)", iterations, faults)
	}

	manifestData, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(manifestData, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m["schema"] != "diablo/run-manifest/v1" {
		t.Fatalf("manifest schema = %v", m["schema"])
	}
	if m["experiment"] != "faultincast" {
		t.Fatalf("manifest experiment = %v", m["experiment"])
	}
	if m["degradation"] == nil {
		t.Fatal("manifest degradation missing")
	}
	if m["stats_hash"] == "" || m["stats_hash"] == nil {
		t.Fatal("manifest stats hash missing")
	}
	checkGolden(t, "testdata/faultincast.golden", strings.ReplaceAll(out.String(), dir, "DIR"))
}

// checkGolden compares an experiment's rendered output with the recorded
// text: the built-in fault schedules, their degradation names and every
// number the two runs produce must not drift.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestObservedFaultMCExperiment(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "m.json")
	out, err := RunExperiment("faultmc", ExperimentOptions{
		Sweep:       Sweep{Requests: 5},
		ManifestOut: manifestPath, // manifest only: TraceOut stays optional
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) == 0 {
		t.Fatal("degradation table missing")
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m["experiment"] != "faultmc" || m["degradation"] == nil {
		t.Fatalf("manifest incomplete: experiment=%v", m["experiment"])
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); !os.IsNotExist(err) {
		t.Fatal("trace written without TraceOut")
	}
	checkGolden(t, "testdata/faultmc.golden", strings.ReplaceAll(out.String(), dir, "DIR"))
}
