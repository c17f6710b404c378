package provjson_test

import (
	"bytes"
	"testing"

	"provmark/internal/graph"
	"provmark/internal/provjson"
)

// FuzzProvJSONRoundTrip checks Unmarshal and Marshal against the
// encoding/json oracle on any input: Unmarshal accepts exactly the
// documents the oracle accepts and builds the same graph, and Marshal
// writes the oracle's bytes. It also checks that any document the
// parser accepts survives a Marshal/Unmarshal round trip unchanged.
// The seed corpus under testdata/fuzz covers repeated sections, ids
// and keys, null at each level, surrogates, invalid UTF-8, U+2028 and
// U+2029, HTML characters, trailing bytes and non-string values.
func FuzzProvJSONRoundTrip(f *testing.F) {
	f.Add([]byte(`{"entity":{"e1":{"prov:type":"file"}},"activity":{"a1":{}},"used":{"u1":{"prov:activity":"a1","prov:entity":"e1","ts":"3"}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"agent":{"g":{}},"custom":{"c":{"prov:from":"g","prov:to":"g","weight":"2"}}}`))
	f.Add([]byte(`{"entity":{"a":{},"b":{}},"wasDerivedFrom":{"d":{"prov:generatedEntity":"a","prov:usedEntity":"b"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g1, err := provjson.Unmarshal(data)
		want, wantErr := oracleUnmarshal(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Unmarshal error %v, oracle error %v\ninput: %q", err, wantErr, data)
		}
		if err != nil {
			return
		}
		if !graph.Equal(g1, want) || g1.String() != want.String() {
			t.Fatalf("Unmarshal and oracle disagree:\n%s\noracle:\n%s\ninput: %q", g1, want, data)
		}
		out, err := provjson.Marshal(g1)
		if err != nil {
			t.Fatalf("marshal of parsed graph failed: %v\ninput: %s", err, data)
		}
		if wantOut, err := oracleMarshal(g1); err != nil || !bytes.Equal(out, wantOut) {
			t.Fatalf("Marshal and oracle disagree (oracle error %v):\n%s\noracle:\n%s", err, out, wantOut)
		}
		g2, err := provjson.Unmarshal(out)
		if err != nil {
			t.Fatalf("re-parse of marshalled output failed: %v\noutput: %s", err, out)
		}
		if !graph.Equal(g1, g2) {
			t.Fatalf("round trip changed the graph:\nbefore:\n%s\nafter:\n%s\nserialized:\n%s", g1, g2, out)
		}
	})
}
