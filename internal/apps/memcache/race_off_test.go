//go:build !race

package memcache

const raceEnabled = false
