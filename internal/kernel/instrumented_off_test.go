//go:build !race && !slabdebug

package kernel

const instrumented = false
