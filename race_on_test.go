//go:build race

package repro

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts on purpose, so allocation pins that cross a pool
// (gcs message records, client delivery events) measure the detector, not the
// code.
const raceEnabled = true
