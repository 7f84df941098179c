//go:build race

package gcs

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts on purpose, so an allocation pin that crosses the
// callback pool measures the detector, not the code.
const raceEnabled = true
