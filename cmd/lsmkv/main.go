// Command lsmkv is a small interactive (or scriptable) key-value shell
// over the lsmssd engine, useful for poking at merge behaviour by hand.
//
// Usage:
//
//	lsmkv [-path file.blk] [-shards 1] [-policy ChooseBest] [-preserve=true] [-sync every] [-metrics 127.0.0.1:8080]
//
// Commands (one per line on stdin):
//
//	put <key> <value>     insert or update
//	get <key>             lookup
//	del <key>             delete
//	scan <lo> <hi>        range scan (inclusive)
//	fill <n> [seed]       insert n random records
//	churn <n> [seed]      n random 50/50 inserts/deletes
//	stats                 engine statistics
//	levels                per-level breakdown
//	hist <level> <nbuck>  key histogram of a level
//	health                per-shard health, causes, quarantined blocks
//	validate              check every invariant
//	help                  this text
//	quit
//
// With -scrub <interval> a background scrubber verifies device-block
// checksums per shard at that cadence (e.g. -scrub 5s); corrupt blocks
// are repaired from surviving cached copies or quarantined, and every
// health transition and scrub pass summary is echoed to stderr.
package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"flag"

	"lsmssd"
)

func main() {
	var (
		path     = flag.String("path", "", "file-backed device path (default: in-memory)")
		shards   = flag.Int("shards", 1, "split the key space across this many independent trees (power of two)")
		policy   = flag.String("policy", "ChooseBest", "merge policy: Full, RR, ChooseBest, TestMixed, Mixed")
		preserve = flag.Bool("preserve", true, "enable block-preserving merges")
		k0       = flag.Int("k0", 64, "memtable capacity in blocks")
		delta    = flag.Float64("delta", 0.07, "partial merge rate")
		metrics  = flag.String("metrics", "", "serve /metrics and /debug on this address (e.g. 127.0.0.1:8080)")
		walSync  = flag.String("sync", "every", "write-ahead log sync policy of a -path store: every, interval, or never")
		scrub    = flag.Duration("scrub", 0, "background corruption-scrub interval per shard (0 disables), e.g. 5s")
	)
	flag.Parse()

	pol, ok := map[string]lsmssd.Policy{
		"Full": lsmssd.Full, "RR": lsmssd.RR, "ChooseBest": lsmssd.ChooseBest,
		"TestMixed": lsmssd.TestMixed, "Mixed": lsmssd.Mixed,
	}[*policy]
	if !ok {
		fmt.Fprintf(os.Stderr, "lsmkv: unknown policy %q\n", *policy)
		os.Exit(1)
	}
	sync, ok := map[string]lsmssd.SyncPolicy{
		"every": lsmssd.SyncEvery, "interval": lsmssd.SyncInterval, "never": lsmssd.SyncNever,
	}[*walSync]
	if !ok {
		fmt.Fprintf(os.Stderr, "lsmkv: unknown WAL sync policy %q (every, interval, or never)\n", *walSync)
		os.Exit(1)
	}
	db, err := lsmssd.Open(lsmssd.Options{
		Path:            *path,
		Shards:          *shards,
		MergePolicy:     pol,
		DisablePreserve: !*preserve,
		MemtableBlocks:  *k0,
		Delta:           *delta,
		MetricsAddr:     *metrics,
		WAL:             lsmssd.WALOptions{Sync: sync},
		ScrubInterval:   *scrub,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lsmkv: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()
	if *metrics != "" {
		fmt.Fprintf(os.Stderr, "lsmkv: metrics on http://%s/metrics (also /debug/lsm, /debug/pprof)\n", db.MetricsAddr())
	}
	// Waste warnings (a level's waste factor nearing its ε bound) and
	// background write stalls land on stderr as they happen, so the prompt
	// stays usable. Stop stalls always print; slowdowns are rate-limited
	// to one line a second (a churn can trip thousands).
	var lastSlowdown atomic.Int64
	db.Subscribe(func(ev lsmssd.Event) {
		switch e := ev.(type) {
		case lsmssd.WarnEvent:
			fmt.Fprintf(os.Stderr, "lsmkv: warning: %s\n", e.Message)
		case lsmssd.StallEvent:
			if e.Kind == "slowdown" {
				now := time.Now().UnixNano()
				last := lastSlowdown.Load()
				if now-last < int64(time.Second) || !lastSlowdown.CompareAndSwap(last, now) {
					return
				}
			}
			fmt.Fprintf(os.Stderr, "lsmkv: write stall (%s): L0 at %d blocks (trigger %d), waited %v\n",
				e.Kind, e.L0Blocks, e.Trigger, e.Duration)
		case lsmssd.HealthEvent:
			msg := fmt.Sprintf("lsmkv: shard %d health: %s -> %s (%s)", e.Shard, e.From, e.To, e.Cause)
			if e.Err != "" {
				msg += ": " + e.Err
			}
			fmt.Fprintln(os.Stderr, msg)
		case lsmssd.ScrubEvent:
			if e.Corrupt > 0 || e.Quarantined > 0 {
				fmt.Fprintf(os.Stderr, "lsmkv: scrub shard %d: %d checked, %d corrupt, %d repaired, %d quarantined (%v)\n",
					e.Shard, e.Checked, e.Corrupt, e.Repaired, e.Quarantined, e.Duration)
			}
		}
	})

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := dispatch(db, fields); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func dispatch(db *lsmssd.DB, f []string) error {
	argN := func(i int) (uint64, error) {
		if i >= len(f) {
			return 0, fmt.Errorf("missing argument %d", i)
		}
		return strconv.ParseUint(f[i], 10, 64)
	}
	switch f[0] {
	case "quit", "exit":
		return errQuit
	case "help":
		fmt.Println("put get del scan fill churn stats levels hist health validate quit")
	case "put":
		k, err := argN(1)
		if err != nil {
			return err
		}
		if len(f) < 3 {
			return fmt.Errorf("put <key> <value>")
		}
		return db.Put(k, []byte(strings.Join(f[2:], " ")))
	case "get":
		k, err := argN(1)
		if err != nil {
			return err
		}
		v, ok, err := db.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Println("(not found)")
		} else {
			fmt.Printf("%s\n", v)
		}
	case "del":
		k, err := argN(1)
		if err != nil {
			return err
		}
		return db.Delete(k)
	case "scan":
		lo, err := argN(1)
		if err != nil {
			return err
		}
		hi, err := argN(2)
		if err != nil {
			return err
		}
		n := 0
		err = db.Scan(lo, hi, func(k uint64, v []byte) bool {
			fmt.Printf("%d = %s\n", k, v)
			n++
			return n < 1000
		})
		fmt.Printf("(%d records)\n", n)
		return err
	case "fill", "churn":
		n, err := argN(1)
		if err != nil {
			return err
		}
		seed := int64(1)
		if s, err := argN(2); err == nil {
			seed = int64(s)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := uint64(0); i < n; i++ {
			k := rng.Uint64() % 1_000_000_000
			if f[0] == "churn" && rng.Intn(2) == 0 {
				if err := db.Delete(k); err != nil {
					return err
				}
				continue
			}
			if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
				return err
			}
		}
		fmt.Printf("applied %d requests\n", n)
	case "stats":
		s := db.Stats()
		fmt.Printf("height=%d records=%d writes=%d reads=%d live=%d merges=%d (full=%d)\n",
			s.Height, s.Records, s.BlocksWritten, s.BlocksRead, s.LiveBlocks, s.Merges, s.FullMerges)
	case "levels":
		for _, l := range db.Stats().Levels {
			fmt.Printf("L%d: %6d/%6d blocks %8d records waste=%.3f written=%d compactions=%d\n",
				l.Level, l.Blocks, l.CapacityBlocks, l.Records, l.WasteFactor, l.BlocksWritten, l.Compactions)
		}
	case "hist":
		lvl, err := argN(1)
		if err != nil {
			return err
		}
		n, err := argN(2)
		if err != nil {
			return err
		}
		h, err := db.Histogram(int(lvl), 1_000_000_000, int(n))
		if err != nil {
			return err
		}
		for i, frac := range h {
			fmt.Printf("%3d %6.4f %s\n", i, frac, strings.Repeat("#", int(frac*400)))
		}
	case "health":
		hr := db.Health()
		fmt.Printf("overall: %s\n", hr.State)
		for _, sh := range hr.Shards {
			line := fmt.Sprintf("shard %d: %s", sh.Shard, sh.State)
			if sh.Cause != "" {
				line += " (" + sh.Cause + ")"
			}
			if sh.Err != "" {
				line += ": " + sh.Err
			}
			fmt.Println(line)
			for _, q := range sh.Quarantined {
				fmt.Printf("  quarantined block %d at L%d: %s\n", q.Block, q.Level, q.Reason)
			}
		}
	case "validate":
		if err := db.Validate(); err != nil {
			return err
		}
		fmt.Println("ok")
	default:
		return fmt.Errorf("unknown command %q (try help)", f[0])
	}
	return nil
}
