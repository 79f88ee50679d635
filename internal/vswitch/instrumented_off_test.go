//go:build !race && !slabdebug

package vswitch

const instrumented = false
