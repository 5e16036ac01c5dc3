//go:build race

package workloads

// The race detector makes sync.Pool drop a random share of the buffers
// put back, so allocation bounds do not hold under it.
func init() { raceEnabled = true }
