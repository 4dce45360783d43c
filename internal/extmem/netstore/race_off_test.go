//go:build !race

package netstore

// raceEnabled reports that this binary was built with the race detector;
// see race_on_test.go.
const raceEnabled = false
