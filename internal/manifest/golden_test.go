package manifest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden corruption fixtures under testdata/")

// regenerateFixtures rebuilds the committed fixtures deterministically
// from sampleState: one valid manifest plus one variant per corruption
// class. Each corrupt variant differs from the valid file in exactly the
// way its class requires, so the test below can assert that Load reports
// that class and no other. version3.manifest is not regenerated: it is the
// last file a version-3 writer produced (seven config fields, no layout,
// one implicit run per level), kept frozen to prove such files are refused.
func regenerateFixtures(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "m")
	if _, err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	badmagic := append([]byte(nil), valid...)
	copy(badmagic, "NOPE")

	badcrc := append([]byte(nil), valid...)
	badcrc[len(badcrc)-1] ^= 0xFF

	for name, data := range map[string][]byte{
		"valid.manifest":     valid,
		"truncated.manifest": valid[:10],
		"badmagic.manifest":  badmagic,
		"badcrc.manifest":    badcrc,
	} {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenCorruptionFixtures pins down the corruption taxonomy: each
// damage class returns its own sentinel (wrapped, with detail), never a
// neighboring one, and Load leaves the on-disk file byte-identical.
func TestGoldenCorruptionFixtures(t *testing.T) {
	if *update {
		regenerateFixtures(t)
	}
	sentinels := []error{ErrTruncated, ErrBadMagic, ErrChecksum, ErrVersion}
	cases := []struct {
		file string
		want error // nil = must load cleanly
	}{
		{"valid.manifest", nil},
		{"truncated.manifest", ErrTruncated},
		{"badmagic.manifest", ErrBadMagic},
		{"badcrc.manifest", ErrChecksum},
		{"version3.manifest", ErrVersion},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to regenerate): %v", err)
			}
			st, err := Load(path)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("valid fixture rejected: %v", err)
				}
				if st.WALSeq != sampleState().WALSeq {
					t.Errorf("walseq = %d, want %d", st.WALSeq, sampleState().WALSeq)
				}
			} else {
				if !errors.Is(err, tc.want) {
					t.Fatalf("Load error = %v, want %v", err, tc.want)
				}
				for _, s := range sentinels {
					if s != tc.want && errors.Is(err, s) {
						t.Errorf("error %v also matches unrelated sentinel %v", err, s)
					}
				}
				if tc.want == ErrVersion && !strings.Contains(err.Error(), "unsupported version 3") {
					t.Errorf("version error %q does not name the file's version", err)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("Load modified the on-disk manifest")
			}
		})
	}
}

// TestLoadVersionSkewDistinctFromChecksum guards the header-before-CRC
// ordering: a file whose version and checksum are both wrong must report
// the version, so only explicit ordering keeps the error a version error.
func TestLoadVersionSkewDistinctFromChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m")
	if _, err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Patch the version but leave the old CRC: both are wrong, and the
	// version must win.
	binary.LittleEndian.PutUint32(raw[4:8], 7)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrVersion) {
		t.Errorf("Load error = %v, want ErrVersion", err)
	}
}
