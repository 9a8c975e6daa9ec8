//go:build !race

package remicss_test

const raceEnabled = false
