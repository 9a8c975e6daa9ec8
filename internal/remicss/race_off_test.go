//go:build !race

package remicss

const raceEnabled = false
