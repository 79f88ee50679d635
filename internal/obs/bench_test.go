package obs

import "testing"

// A detached trace is a nil *Trace: the model's span hooks stay nil, and a
// nil trace's methods cost one nil test (Observe and Finish call them with
// the trace disabled).

func BenchmarkTraceSpanDetached(b *testing.B) {
	var tr *Trace
	for i := 0; i < b.N; i++ {
		tr.Span(0, "t", "c", "n", 0, 0)
	}
}
