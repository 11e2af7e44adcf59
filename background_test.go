package lsmssd_test

import (
	"fmt"
	"testing"
	"time"

	"lsmssd"
)

// TestBackgroundCompactionBasic is the API-level smoke test for the
// compaction goroutine: writes land, reads see them, the scheduler reports
// its step count through Stats, and Close drains cleanly.
func TestBackgroundCompactionBasic(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1000; k++ {
		if err := db.Put(k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 1000; k++ {
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprint(k) {
			t.Fatalf("Get(%d) = %q, %v, %v", k, v, ok, err)
		}
	}
	// 1000 records over a 16-record L0 forces merges; the background
	// goroutine is the only thing allowed to run them.
	deadline := time.Now().Add(10 * time.Second)
	for db.Stats().Compaction.Steps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background cascade steps observed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStallBackpressure drives writes hard enough that admission reaches
// the slowdown or stop threshold (2 and 4 blocks over a one-block L0), and
// checks the stalls are counted and timed.
func TestStallBackpressure(t *testing.T) {
	opts := smallOptions()
	opts.MemtableBlocks = 1
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stalled := func() bool {
		c := db.Stats().Compaction
		return c.Slowdowns+c.Stops > 0
	}
	for k := uint64(0); k < 200_000 && !stalled(); k++ {
		if err := db.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if !stalled() {
		t.Fatal("200k writes against a 1-block L0 never tripped backpressure")
	}
	c := db.Stats().Compaction
	if c.Slowdowns > 0 && c.SlowdownTime == 0 {
		t.Fatal("slowdown stalls counted but no stall time recorded")
	}
	if c.Stops > 0 && c.StopTime == 0 {
		t.Fatal("stop stalls counted but no stall time recorded")
	}
}
