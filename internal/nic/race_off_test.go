//go:build !race

package nic

const raceEnabled = false
