//go:build race || slabdebug

package vswitch

// instrumented reports a -race or slabdebug build, which allocates on its own
// (the race runtime; the packet pool's lifecycle records): the allocation
// budgets skip under it.
const instrumented = true
