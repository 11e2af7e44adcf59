package lsmssd

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from what this commit serves")

// surfaceDB opens a file-backed store with everything that adds a metric
// family or a /debug/lsm key switched on (WAL, latency recording, tracing,
// the HTTP endpoint), runs a little traffic through it, and degrades shard 0
// so that the endpoint serves shard_health too.
func surfaceDB(t *testing.T, shards int) *DB {
	t.Helper()
	opts := traceOptions()
	opts.Shards = shards
	opts.Path = filepath.Join(t.TempDir(), "store.blk")
	opts.WAL = WALOptions{Sync: SyncNever}
	opts.MetricsAddr = "127.0.0.1:0"
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := uint64(0); i < 400; i++ {
		if err := db.Put(i, []byte("surface")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Get(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(0, 50, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	db.shards[0].health.Degrade("surface-test", nil)
	return db
}

// familyLines lists what a scraper can depend on in db's /metrics payload —
// one "name type {label keys} help" line per family, no values — sorted.
func familyLines(db *DB) []string {
	var lines []string
	for _, f := range db.metricFamilies() {
		keys := map[string]bool{}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				keys[l.Name] = true
			}
		}
		for _, h := range f.Hists {
			for _, l := range h.Labels {
				keys[l.Name] = true
			}
		}
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		lines = append(lines, fmt.Sprintf("%s %s {%s} %s", f.Name, f.Type, strings.Join(names, ","), f.Help))
	}
	sort.Strings(lines)
	return lines
}

// debugLSMKeys fetches /debug/lsm and flattens it to "path → JSON type"
// (an array contributes its first element under "path[]").
func debugLSMKeys(t *testing.T, db *DB) map[string]string {
	t.Helper()
	var doc any
	getJSON(t, db.MetricsAddr(), "/debug/lsm", &doc)
	out := map[string]string{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			out[path] = "array"
			if len(x) > 0 {
				walk(path+"[]", x[0])
			}
		case string:
			out[path] = "string"
		case float64:
			out[path] = "number"
		case bool:
			out[path] = "bool"
		case nil:
			out[path] = "null"
		}
	}
	walk("", doc)
	return out
}

// goldenLines reads testdata/name, or with -update rewrites it from got.
func goldenLines(t *testing.T, name string, got []string) []string {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestScrapedSurfacesKeepParentEntries pins what users scrape: every metric
// family (name, type, label keys, help) and every /debug/lsm key (name, JSON
// type) recorded in the goldens — written at the commit before the counters
// got their one table — is still served, byte for byte. New entries are free.
func TestScrapedSurfacesKeepParentEntries(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db := surfaceDB(t, shards)
		got := familyLines(db)
		have := map[string]bool{}
		for _, l := range got {
			have[l] = true
		}
		for _, want := range goldenLines(t, fmt.Sprintf("families_shards%d.golden", shards), got) {
			if !have[want] {
				t.Errorf("Shards=%d: /metrics no longer serves family\n\t%s", shards, want)
			}
		}
	}

	keys := debugLSMKeys(t, surfaceDB(t, 4))
	var got []string
	for k, typ := range keys {
		got = append(got, k+" "+typ)
	}
	sort.Strings(got)
	for _, want := range goldenLines(t, "debug_lsm_keys.golden", got) {
		key, typ, _ := strings.Cut(want, " ")
		switch have, ok := keys[key]; {
		case !ok:
			t.Errorf("/debug/lsm no longer serves key %q", key)
		case have != typ && have != "null" && typ != "null":
			t.Errorf("/debug/lsm key %q is now a %s, was a %s", key, have, typ)
		}
	}
}

// counterField is one exported numeric field of Counters, nested structs
// included: where it is (for reflect) and the /debug/lsm key it is served as.
type counterField struct {
	index []int
	key   string
}

func counterFields(typ reflect.Type, index []int, prefix string) []counterField {
	var out []counterField
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key := f.Name
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
			key = tag
		}
		at := append(append([]int(nil), index...), i)
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, counterFields(f.Type, at, prefix+key+".")...)
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			out = append(out, counterField{at, prefix + key})
		}
	}
	return out
}

// TestEveryCounterOnEverySurface makes the drift between surfaces impossible:
// a numeric field added to Counters without a metricTable row fails here, and
// so does a row without its field, a field /debug/lsm does not serve (whole
// store and per shard), or a row with no aggregate or no per-shard family.
// The log's WALStats and walTable are held to the same rules, except that
// they are served for the whole store only. Reflection stays in this test;
// no serving path uses it.
func TestEveryCounterOnEverySurface(t *testing.T) {
	fields := tableCoversFields(t, metricTable)
	walFields := tableCoversFields(t, walTable)

	db := surfaceDB(t, 4)
	keys := debugLSMKeys(t, db)
	for _, f := range fields {
		for _, key := range []string{f.key, "per_shard[]." + f.key} {
			if keys[key] != "number" {
				t.Errorf("/debug/lsm serves %q as %q, want a number", key, keys[key])
			}
		}
	}
	for _, f := range walFields {
		if key := "wal." + f.key; keys[key] != "number" {
			t.Errorf("/debug/lsm serves %q as %q, want a number", key, keys[key])
		}
		if key := "per_shard[].wal." + f.key; keys[key] != "" {
			t.Errorf("/debug/lsm serves the one log per shard, as %q", key)
		}
	}
	samples := map[string]int{}
	for _, f := range db.metricFamilies() {
		samples[f.Name] += len(f.Samples)
	}
	perFamily := map[string]int{}
	for _, m := range metricTable {
		perFamily[m.name]++
	}
	for name, rows := range perFamily {
		shardName := "lsmssd_shard_" + strings.TrimPrefix(name, "lsmssd_")
		if samples[name] != rows || samples[shardName] != 4*rows {
			t.Errorf("%s has %d samples and %s %d at Shards=4, want %d and %d",
				name, samples[name], shardName, samples[shardName], rows, 4*rows)
		}
	}
	for _, m := range walTable {
		shardName := "lsmssd_shard_" + strings.TrimPrefix(m.name, "lsmssd_")
		if samples[m.name] != 1 || samples[shardName] != 0 {
			t.Errorf("%s has %d samples and %s %d at Shards=4, want 1 and none",
				m.name, samples[m.name], shardName, samples[shardName])
		}
	}
}

// tableCoversFields checks that every numeric field of S is read by exactly
// one row of table, and every row reads one; it returns the fields.
func tableCoversFields[S any](t *testing.T, table []metric[S]) []counterField {
	t.Helper()
	var zero S
	fields := counterFields(reflect.TypeOf(zero), nil, "")
	rowHits := make([]int, len(table))
	for _, f := range fields {
		var c S
		switch v := reflect.ValueOf(&c).Elem().FieldByIndex(f.index); v.Kind() {
		case reflect.Uint64:
			v.SetUint(3)
		case reflect.Float64:
			v.SetFloat(3)
		default:
			v.SetInt(3)
		}
		rows := 0
		for i := range table {
			if table[i].get(&c) != 0 {
				rows++
				rowHits[i]++
			}
		}
		if rows != 1 {
			t.Errorf("%T field %s is read by %d table rows, want exactly 1", zero, f.key, rows)
		}
	}
	for i, hits := range rowHits {
		if m := table[i]; hits != 1 {
			t.Errorf("row %s{%s} reads no numeric %T field", m.name, m.kind, zero)
		}
	}
	return fields
}
