//go:build race

package cluster_test

// raceEnabled: the race detector's sync.Pool drops a random quarter of
// what is put back, so a pooled scratch is rebuilt now and then.
const raceEnabled = true
