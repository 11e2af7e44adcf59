// TPC: an order-entry workload in the style of the paper's TPC experiment
// (Figure 6c) — NEW_ORDER rows keyed by (warehouse, district, order id)
// packed into a bit-string key, with order entry appending sequential ids
// per district and delivery removing the ten oldest.
//
// The example shows why LSM suits this workload (sequential-within-
// district inserts, range scans per district) and reports the write cost.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lsmssd"
)

const (
	warehouses   = 8
	districts    = 10
	transactions = 30_000
	orderLines   = 10
)

// key packs (warehouse, district, order line id) exactly as the paper
// codes the NEW_ORDER primary key: a bit string.
func key(w, d int, line uint64) uint64 {
	return uint64(w)<<48 | uint64(d)<<40 | line
}

func main() {
	db, err := lsmssd.Open(lsmssd.Options{
		MergePolicy:     lsmssd.ChooseBest,
		MemtableBlocks:  64,
		RecordsPerBlock: 54, // 64-byte order lines in a 4 KiB block
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(1))
	// lo/hi delimit the live order-line ids per district.
	lo := make([][]uint64, warehouses)
	hi := make([][]uint64, warehouses)
	for w := range lo {
		lo[w] = make([]uint64, districts)
		hi[w] = make([]uint64, districts)
	}

	payload := []byte("customer-order-line-payload-0123456789-0123456789-0123456789xx")
	entered, delivered := 0, 0
	for t := 0; t < transactions; t++ {
		w, d := rng.Intn(warehouses), rng.Intn(districts)
		if rng.Intn(2) == 0 || hi[w][d]-lo[w][d] < orderLines {
			// Order entry: append ten order lines.
			for i := 0; i < orderLines; i++ {
				if err := db.Put(key(w, d, hi[w][d]), payload); err != nil {
					log.Fatal(err)
				}
				hi[w][d]++
			}
			entered++
		} else {
			// Delivery: remove the ten oldest order lines.
			for i := 0; i < orderLines; i++ {
				if err := db.Delete(key(w, d, lo[w][d])); err != nil {
					log.Fatal(err)
				}
				lo[w][d]++
			}
			delivered++
		}
	}

	// Range-scan one district's open orders — a contiguous key range by
	// construction of the bit-string key.
	w, d := 3, 7
	open := 0
	if err := db.Scan(key(w, d, 0), key(w, d+1, 0)-1, func(uint64, []byte) bool {
		open++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	if want := int(hi[w][d] - lo[w][d]); open != want {
		log.Fatalf("district scan found %d open order lines, bookkeeping says %d", open, want)
	}

	s := db.Stats()
	fmt.Printf("transactions: %d order entries, %d deliveries\n", entered, delivered)
	fmt.Printf("district (%d,%d) has %d open order lines (verified by range scan)\n", w, d, open)
	fmt.Printf("index: height %d, %d records, %d blocks written (%.2f per request)\n",
		s.Height, s.Records, s.BlocksWritten, float64(s.BlocksWritten)/float64(s.Requests))
	if err := db.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all invariants hold")
}
