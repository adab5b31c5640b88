package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// maxScenarioBytes bounds a scenario file's size: the decoder is fuzzed and
// exposed to user-supplied paths, so it refuses absurd inputs outright.
const maxScenarioBytes = 4 << 20

// Parse decodes and validates a scenario from JSON. Decoding is strict —
// unknown fields, trailing garbage and oversized documents are errors — and
// every returned error either is a JSON decoding error or wraps ErrInvalid;
// Parse never panics on any input.
func Parse(data []byte) (*Scenario, error) {
	if len(data) > maxScenarioBytes {
		return nil, fieldErrf("scenario", "file larger than %d bytes", maxScenarioBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	// Reject trailing tokens ("{}{}", "{} junk"): one document per file.
	if dec.More() {
		return nil, fieldErrf("scenario", "trailing data after scenario document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Load reads a scenario from a JSON file and validates it.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Resolve turns cmd-line input into a scenario: a built-in name first, then
// a path to a scenario file (anything containing a path separator or a
// .json suffix skips the built-in lookup). The bool reports whether the
// result is a built-in (and therefore carries claims).
func Resolve(nameOrPath string) (*Scenario, bool, error) {
	if nameOrPath == "" {
		return nil, false, fieldErrf("scenario", "empty scenario name")
	}
	looksLikePath := strings.ContainsAny(nameOrPath, `/\`) || strings.HasSuffix(nameOrPath, ".json")
	if !looksLikePath {
		if sc := Lookup(nameOrPath); sc != nil {
			return sc, true, nil
		}
	}
	sc, err := Load(nameOrPath)
	if err != nil {
		if !looksLikePath {
			return nil, false, fmt.Errorf("scenario: %q is neither a built-in (%s) nor a readable file: %w",
				nameOrPath, strings.Join(BuiltinNames(), ", "), err)
		}
		return nil, false, err
	}
	return sc, false, nil
}
