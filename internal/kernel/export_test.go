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

// call makes the call a whole record describes, through enter like every
// entry point: the op tests use it for a bare syscall.
func (t *Thread) call(op threadOp) Result {
	return *t.enter(op.kind, func(o *threadOp) { *o = op })
}
