package kernel

// Resumes returns how often the threads of m switched into a Spawn coroutine:
// the hook the external guard test reads, compiled into tests only.
func Resumes(m *Machine) uint64 {
	var n uint64
	for _, t := range m.threads {
		n += t.resumes
	}
	return n
}
