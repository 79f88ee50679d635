package campaign

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCampaignSpec feeds arbitrary bytes through the spec decoder and the
// cell enumeration a campaign run starts with. Neither may panic, and a spec
// that is accepted must survive re-encoding: the JSON of the parsed spec
// parses again and enumerates the same cells, seeds included.
func FuzzCampaignSpec(f *testing.F) {
	for _, name := range Presets() {
		spec, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	tiny, _ := json.Marshal(tinySpec())
	f.Add(tiny)
	f.Add([]byte(`{"name":"x","topologies":[{"shape":"4x2x1"}],"profiles":["ideal"],"workloads":[{"name":"w","proto":"tcp","requests":1}]}`))
	f.Add([]byte(`{"name":"x","seeds":[3,1],"topologies":[{"shape":"4x2x1"}],"profiles":["ideal"],"workloads":[{"name":"w","proto":"tcp","requests":2,"version":"1.4.15","churn_every":1,"extra_switch_ns":50}]}`))
	f.Add([]byte(`{"name":"x","faults":{"draws":9223372036854775807}}`))
	f.Add([]byte(`{"name":"x","topologies":[{"shape":"4x2x1"}],"profiles":["ideal"],"workloads":[{"name":"w","proto":"udp","requests":2}],"faults":{"draws":1,"events":1,"start_ms":2e10,"horizon_ms":1,"mean_dur_ms":1}}`))
	f.Add([]byte(`{"name":"x","topologies":[{"shape":"3x1x1"}],"profiles":["ideal"],"workloads":[{"name":"w","app":"incast","proto":"tcp","requests":1}],"faults":{"draws":1,"plan":"edgedegrade node=0 at=0 dur=1s loss=2"}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatalf("accepted spec fails to enumerate: %v", err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		again, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, b)
		}
		cells2, err := again.Cells()
		if err != nil {
			t.Fatalf("re-encoded spec fails to enumerate: %v", err)
		}
		if !reflect.DeepEqual(cells, cells2) {
			t.Fatalf("re-encoded spec enumerates different cells:\n%s", b)
		}
	})
}

// FuzzValidateArtifact: the validator behind `diablo validate` takes any
// file a user points it at, so arbitrary bytes must yield a kind or an
// error, never a panic.
func FuzzValidateArtifact(f *testing.F) {
	f.Add([]byte(`{"schema":"diablo/run-manifest/v1","experiment":"x","stats_hash":"h"}`))
	f.Add([]byte(`{"schema":"diablo/campaign-report/v1","cells":[{"index":0}]}`))
	f.Add([]byte(`{"schema":"diablo/campaign-spec/v1","name":"x"}`))
	f.Add([]byte(`{"schema":"diablo/campaign-diff/v1"}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X"},{}]}`))
	f.Add([]byte(`{"schema":"other"}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ValidateArtifact(data)
	})
}
