package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"passjoin"
)

// indexCounters is every index-shape counter a server publishes, once per
// surface: the Go field of passjoin.Stats, the top-level /v1/stats key
// and the /metrics series. live marks the counters the scenario below
// drives off zero, so their agreement is not vacuous.
var indexCounters = []struct {
	field, key, series string
	live               bool
}{
	{"FrozenBytes", "frozen_bytes", "passjoin_frozen_bytes", true},
	{"DeltaDocs", "delta_docs", "passjoin_delta_docs", true},
	{"Tombstones", "tombstones", "passjoin_tombstones", true},
	{"Compactions", "compactions", "passjoin_compactions_total", true},
	{"CompactErrors", "compact_errors", "passjoin_compact_errors_total", false},
	{"WALBytes", "wal_bytes", "passjoin_wal_bytes", true},
	{"WALRecords", "wal_records", "passjoin_wal_records", true},
}

// statsIndexKeys is the /v1/stats "index" object's key list, in order: the
// wire contract of passjoin.Stats's JSON form.
var statsIndexKeys = []string{
	"Strings", "ShortStrings", "SelectedSubstrings", "Lookups", "LookupHits",
	"Candidates", "UniqueCandidates", "SigRejects", "Verifications", "DPCells",
	"EarlyTerminations", "SharedRows", "Results", "IndexBytes", "IndexEntries",
	"FrozenBytes", "FrozenEntries", "DeltaDocs", "Tombstones", "Compactions",
	"CompactErrors", "WALBytes", "WALRecords",
}

// TestCountersAgreeAcrossSurfaces: after inserts, deletes and a
// compaction on a durable index, each index-shape counter reads the same
// from DynamicSearcher.Stats, the top-level /v1/stats key, the /v1/stats
// index object and the /metrics sample.
func TestCountersAgreeAcrossSurfaces(t *testing.T) {
	ds, err := passjoin.OpenDynamicSearcher(t.TempDir(), testCorpus(t, 40), 2,
		passjoin.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	ts := httptest.NewServer(New(ds, nil, Config{}))
	t.Cleanup(ts.Close)
	mutate := func(docs []string, del int) {
		t.Helper()
		for _, d := range docs {
			var created DocResponse
			if code := postJSON(t, ts.URL+"/v1/docs", map[string]string{"doc": d}, &created); code != http.StatusCreated {
				t.Fatalf("insert %q: status %d", d, code)
			}
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/docs/"+strconv.Itoa(del), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %d: status %d", del, resp.StatusCode)
		}
	}
	mutate([]string{"first new doc", "second new doc", "third new doc"}, 3)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	mutate([]string{"fourth new doc", "fifth new doc"}, 41)

	var stats map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/stats", &stats)
	var index map[string]int64
	if err := json.Unmarshal(stats["index"], &index); err != nil {
		t.Fatal(err)
	}
	_, fams := scrape(t, ts.URL)
	goStats := reflect.ValueOf(ds.Stats())

	for _, c := range indexCounters {
		t.Run(c.field, func(t *testing.T) {
			want := goStats.FieldByName(c.field).Int()
			if c.live && want == 0 {
				t.Fatalf("Stats().%s is 0; the scenario should move it", c.field)
			}
			var top int64
			if err := json.Unmarshal(stats[c.key], &top); err != nil {
				t.Fatalf("/v1/stats %q: %v", c.key, err)
			}
			f := fams[c.series]
			if f == nil || len(f.samples) != 1 {
				t.Fatalf("/metrics %s: family %+v", c.series, f)
			}
			got := map[string]int64{
				"/v1/stats " + c.key:         top,
				"/v1/stats index." + c.field: index[c.field],
				"/metrics " + c.series:       int64(f.samples[0].value),
			}
			for surface, v := range got {
				if v != want {
					t.Errorf("%s = %d, Stats().%s = %d", surface, v, c.field, want)
				}
			}
		})
	}

	if got := jsonKeys(t, stats["index"]); !slices.Equal(got, statsIndexKeys) {
		t.Errorf("/v1/stats index keys:\n%q\nwant\n%q", got, statsIndexKeys)
	}
}

// jsonKeys returns a JSON object's keys in document order.
func jsonKeys(t *testing.T, obj json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %s", obj)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
