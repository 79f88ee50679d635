package main

import (
	"strings"
	"testing"

	"diablo"
)

func TestParseFlags(t *testing.T) {
	opts, err := parseFlags([]string{"-requests", "40", "-iterations", "3", "-seed", "7"})
	if want := (diablo.ExperimentOptions{Requests: 40, Iterations: 3, Seed: 7}); err != nil || opts != want {
		t.Fatalf("parseFlags = %+v, %v; want %+v", opts, err, want)
	}
	// A leftover argument, such as a key=value where a flag belongs, is an
	// error naming the first one, never silently a default run.
	for _, c := range []struct {
		args  []string
		first string
	}{
		{[]string{"requests=40"}, "requests=40"},
		{[]string{"-requests", "5", "stray", "more"}, "stray"},
	} {
		if _, err := parseFlags(c.args); err == nil || !strings.Contains(err.Error(), `"`+c.first+`"`) {
			t.Errorf("parseFlags(%q): err = %v, want one naming %q", c.args, err, c.first)
		}
	}
}
