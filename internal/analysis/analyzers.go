package analysis

// All returns the full simlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detlint, Schedlint, Unitlint}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
