//go:build !race

package blocktest

const raceEnabled = false
