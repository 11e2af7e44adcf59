//go:build !race

package lsmssd_test

const raceEnabled = false
