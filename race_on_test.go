//go:build race

package lsmssd_test

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so a read through pooled buffers allocates now and then.
const raceEnabled = true
