//go:build !race

package prehull

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
