//go:build !race

package concat

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
