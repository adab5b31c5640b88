package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenarioParse is the parser's hostile-input gate. The invariants:
//
//   - Parse never panics, whatever the bytes (the fuzz engine enforces
//     this implicitly);
//   - on error, nothing is returned, and validation failures (as opposed
//     to JSON syntax errors) wrap ErrInvalid;
//   - on success, the scenario re-validates and survives a
//     marshal → Parse round trip, so an accepted document is a fixed
//     point of the DSL, not a lucky decode.
//
// Seeds come from the committed example scenarios plus the curated
// malformed corpus in testdata/fuzz/FuzzScenarioParse.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob("testdata/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"name":"x","windows":10,"fleet":[{"count":1}]}`,
		`{"name":"x","windows":-1,"fleet":[{"count":1}]}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"demand":{"kind":"burst","value":1,"high":2,"every":-3,"width":1,"prob":0.5}}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"demand":{"kind":"step","value":1,"to":2,"at":"nan"}}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"demand":{"kind":"step","at":1e999}}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}]}{}`,
		`{"name":"x","windows":10,"fleet":[{"count":1,"mix":"high=2000000000"}]}`,
		`null`,
		`{}`,
		`[["deep",["nesting"]]]`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"capacity":{"kind":"product","factors":[{"kind":"product","factors":[{"kind":"constant","value":1}]}]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			if sc != nil {
				t.Fatalf("Parse returned both a scenario and error %v", err)
			}
			// Errors are JSON decoding errors or typed DSL violations;
			// either way the message stays prefixed and panic-free.
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted scenario fails re-validation: %v", err)
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not re-marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("marshal -> Parse round trip failed: %v\ndoc: %s", err, out)
		}
	})
}

// TestParseErrorTaxonomy pins the error contract the fuzz target spot-checks:
// every Parse failure is either a JSON decode error (prefixed
// "scenario: decode:") or wraps ErrInvalid. Nothing escapes untyped.
func TestParseErrorTaxonomy(t *testing.T) {
	inputs := []string{
		`{`,
		`{"name":"x","windows":"ten","fleet":[{"count":1}]}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"nope":1}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"link":{"loss":{"kind":"constant","value":2}}}`,
		`{"name":"x","windows":10,"fleet":[{"count":1}],"window_seconds":-2}`,
	}
	for _, in := range inputs {
		_, err := Parse([]byte(in))
		if err == nil {
			t.Errorf("Parse accepted %s", in)
			continue
		}
		if !errors.Is(err, ErrInvalid) && !strings.Contains(err.Error(), "scenario: decode:") {
			t.Errorf("untyped parse error for %s: %v", in, err)
		}
	}
}
