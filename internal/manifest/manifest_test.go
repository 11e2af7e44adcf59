package manifest

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/storage"
)

func sampleState() State {
	return State{
		Config: Config{BlockCapacity: 36, K0: 256, Gamma: 10, Epsilon: 0.2, Seed: 7,
			Layout: 2, TierRuns: 4},
		WALSeq: 42,
		Runs: [][][]btree.BlockMeta{
			{
				// L1: two runs — a tiered level mid-accumulation.
				{
					{ID: 3, Min: 10, Max: 20, Count: 4, Tombstones: 1},
					{ID: 9, Min: 30, Max: 44, Count: 5},
				},
				{
					{ID: 12, Min: 2, Max: 50, Count: 7},
				},
			},
			{{}},
			{
				{
					{ID: 1, Min: 0, Max: 1 << 50, Count: 36},
				},
			},
		},
		Memtable: []block.Record{
			{Key: 5, Payload: []byte("hello")},
			{Key: 6, Tombstone: true},
			{Key: 1 << 60, Payload: bytes.Repeat([]byte{1}, 300)},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	want := sampleState()
	n, err := Save(path, want)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("Save reported %d bytes, the file holds %d", n, fi.Size())
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != want.Config {
		t.Errorf("config = %+v, want %+v", got.Config, want.Config)
	}
	if got.WALSeq != want.WALSeq {
		t.Errorf("walseq = %d, want %d", got.WALSeq, want.WALSeq)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("levels = %d, want %d", len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		if len(got.Runs[i]) != len(want.Runs[i]) {
			t.Fatalf("L%d: %d runs, want %d", i+1, len(got.Runs[i]), len(want.Runs[i]))
		}
		for j := range want.Runs[i] {
			if len(got.Runs[i][j]) != len(want.Runs[i][j]) {
				t.Fatalf("L%d run %d: %d metas, want %d", i+1, j, len(got.Runs[i][j]), len(want.Runs[i][j]))
			}
			for k := range want.Runs[i][j] {
				if !got.Runs[i][j][k].SameBlock(want.Runs[i][j][k]) {
					t.Errorf("L%d run %d[%d] = %+v, want %+v", i+1, j, k, got.Runs[i][j][k], want.Runs[i][j][k])
				}
			}
		}
	}
	if len(got.Memtable) != len(want.Memtable) {
		t.Fatalf("memtable = %d records", len(got.Memtable))
	}
	for i := range want.Memtable {
		w, g := want.Memtable[i], got.Memtable[i]
		if g.Key != w.Key || g.Tombstone != w.Tombstone || !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("memtable[%d] = %+v, want %+v", i, g, w)
		}
	}
}

func TestLoadMissing(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != ErrNoManifest {
		t.Errorf("err = %v, want ErrNoManifest", err)
	}
}

func TestLoadCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	if _, err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	cases := map[string][]byte{
		"flipped byte": append(append([]byte{}, raw[:10]...), append([]byte{raw[10] ^ 1}, raw[11:]...)...),
		"truncated":    raw[:len(raw)/2],
		"empty":        {},
		"tiny":         {1, 2, 3},
	}
	for name, data := range cases {
		p := filepath.Join(t.TempDir(), "bad")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Errorf("%s: corrupt manifest loaded", name)
		}
	}
}

func TestSaveIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	if _, err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new state; a temp file must not linger.
	st := sampleState()
	st.Config.Seed = 99
	if _, err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary manifest file left behind")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.Seed != 99 {
		t.Error("second save not visible")
	}
}

// Property: arbitrary states round-trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := State{
			Config: Config{
				BlockCapacity: rng.Intn(100) + 1,
				K0:            rng.Intn(1000) + 1,
				Gamma:         rng.Intn(20) + 2,
				Epsilon:       float64(rng.Intn(500)) / 1000,
				Seed:          rng.Int63(),
				Layout:        rng.Intn(3),
				TierRuns:      rng.Intn(8),
			},
		}
		for l := 0; l < rng.Intn(4)+1; l++ {
			var runs [][]btree.BlockMeta
			for s := 0; s < rng.Intn(3)+1; s++ {
				var metas []btree.BlockMeta
				k := uint64(0)
				for b := 0; b < rng.Intn(10); b++ {
					k += uint64(rng.Intn(100) + 1)
					min := k
					k += uint64(rng.Intn(100))
					metas = append(metas, btree.BlockMeta{
						ID:    storage.BlockID(rng.Intn(10000) + 1),
						Min:   block.Key(min),
						Max:   block.Key(k),
						Count: rng.Intn(50) + 1,
					})
					k++
				}
				runs = append(runs, metas)
			}
			st.Runs = append(st.Runs, runs)
		}
		for r := 0; r < rng.Intn(20); r++ {
			rec := block.Record{Key: block.Key(rng.Uint64())}
			if rng.Intn(3) == 0 {
				rec.Tombstone = true
			} else {
				rec.Payload = make([]byte, rng.Intn(64))
				rng.Read(rec.Payload)
			}
			st.Memtable = append(st.Memtable, rec)
		}
		n++
		path := filepath.Join(dir, "q")
		if _, err := Save(path, st); err != nil {
			return false
		}
		got, err := Load(path)
		if err != nil || got.Config != st.Config || len(got.Runs) != len(st.Runs) {
			return false
		}
		for i := range st.Runs {
			if len(got.Runs[i]) != len(st.Runs[i]) {
				return false
			}
			for j := range st.Runs[i] {
				if len(got.Runs[i][j]) != len(st.Runs[i][j]) {
					return false
				}
				for k := range st.Runs[i][j] {
					if !got.Runs[i][j][k].SameBlock(st.Runs[i][j][k]) {
						return false
					}
				}
			}
		}
		if len(got.Memtable) != len(st.Memtable) {
			return false
		}
		for i := range st.Memtable {
			if got.Memtable[i].Key != st.Memtable[i].Key ||
				got.Memtable[i].Tombstone != st.Memtable[i].Tombstone ||
				!bytes.Equal(got.Memtable[i].Payload, st.Memtable[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
