package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"diablo/internal/sim"
)

// FuzzChromeTraceJSON drives the trace collector with an arbitrary event
// script decoded from the fuzz input and asserts the encoder's two
// invariants: the output is always valid JSON, and payload events are in
// chronological order.
func FuzzChromeTraceJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 96)
	for i := 0; i < 96; i++ {
		seed = append(seed, byte(i*37))
	}
	f.Add(seed)

	tids := []string{"node0 kernel", "node0 user", "node1 net", "global", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrace(256)
		for len(data) >= 12 {
			op := data[0] % 4
			pid := int(data[1] % 4)
			tid := tids[data[2]%byte(len(tids))]
			at := sim.Time(binary.LittleEndian.Uint32(data[3:7])) * sim.Time(sim.Nanosecond)
			dur := sim.Duration(int32(binary.LittleEndian.Uint32(data[7:11]))) * sim.Nanosecond
			name := string(data[11 : 11+int(data[11]%2)])
			data = data[12:]
			switch op {
			case 0:
				tr.Span(pid, tid, "cat", name, at, dur)
			case 1:
				tr.Instant(pid, tid, "cat", name, at)
			case 2:
				tr.GlobalInstant("fault", name, at, map[string]string{"detail": name})
			case 3:
				tr.SetProcessName(pid, name)
			}
		}

		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var out traceFile
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
		}
		lastTs := 0.0
		seenPayload := false
		for _, ev := range out.TraceEvents {
			if ev.Ph == "M" {
				if seenPayload && ev.Name != "trace_truncated" {
					t.Fatalf("metadata event after payload: %+v", ev)
				}
				continue
			}
			seenPayload = true
			if ev.Ts < lastTs {
				t.Fatalf("payload not chronologically sorted: %v after %v", ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Ph == "X" && ev.Dur < 0 {
				t.Fatalf("negative duration: %+v", ev)
			}
		}
	})
}
