//go:build race

package ninf_test

// raceEnabled reports a -race build. The race detector's sync.Pool
// drops a random quarter of Puts by design, so pooled-storage
// allocation bounds only hold without it.
const raceEnabled = true
