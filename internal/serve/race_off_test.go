//go:build !race

package serve

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because sync.Pool intentionally
// drops pooled items there (see sync/pool.go), making pooled paths
// allocate by design.
const raceEnabled = false
