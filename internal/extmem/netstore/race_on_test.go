//go:build race

package netstore

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates on every request: TestNetstoreAllocsFlat
// keeps its flatness check under it but not its absolute ceiling.
const raceEnabled = true
