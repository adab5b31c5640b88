package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestParseExampleScenarios keeps every committed example scenario parseable:
// the files double as fuzz seeds and documentation, so a DSL change that
// orphans one must fail loudly.
func TestParseExampleScenarios(t *testing.T) {
	paths, err := filepath.Glob("testdata/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenarios under testdata/scenarios")
	}
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if sc.Name == "" {
			t.Errorf("%s: parsed scenario has no name", p)
		}
	}
}

func TestParseStrictness(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown field", `{"name":"x","windows":10,"fleet":[{"count":1}],"bogus":1}`},
		{"trailing document", `{"name":"x","windows":10,"fleet":[{"count":1}]}{}`},
		{"trailing garbage", `{"name":"x","windows":10,"fleet":[{"count":1}]} junk`},
		{"not an object", `[1,2,3]`},
		{"truncated", `{"name":"x"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.in)); err == nil {
				t.Fatalf("Parse accepted %s", tc.in)
			}
		})
	}
}

func TestParseRejectsOversizedDocument(t *testing.T) {
	big := append([]byte(`{"name":"x"`), bytes.Repeat([]byte(" "), maxScenarioBytes)...)
	_, err := Parse(big)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("oversized document: got %v, want ErrInvalid", err)
	}
}

// TestParseTypedErrors asserts the contract the fuzz target relies on:
// malformed scenarios produce *FieldError values wrapping ErrInvalid that
// name the offending field — never panics, never unwrapped fmt errors.
func TestParseTypedErrors(t *testing.T) {
	valid := func(extra string) string {
		return `{"name":"x","windows":10,"fleet":[{"count":1}]` + extra + `}`
	}
	cases := []struct {
		name  string
		in    string
		field string
	}{
		{"negative duration", valid(`,"demand":{"kind":"burst","value":1,"high":2,"every":-3,"width":1,"prob":0.5}`), "duration"},
		{"bad duration string", valid(`,"demand":{"kind":"step","value":1,"to":2,"at":"soon"}`), "duration"},
		{"absurd duration", valid(`,"demand":{"kind":"step","value":1,"to":2,"at":"2000h"}`), "duration"},
		{"negative windows", `{"name":"x","windows":-1,"fleet":[{"count":1}]}`, "windows"},
		{"too many windows", `{"name":"x","windows":300000,"fleet":[{"count":1}]}`, "windows"},
		{"missing name", `{"windows":10,"fleet":[{"count":1}]}`, "name"},
		{"missing fleet", `{"name":"x","windows":10}`, "fleet"},
		{"zero count", `{"name":"x","windows":10,"fleet":[{"count":0}]}`, "fleet[0].count"},
		{"negative weight", `{"name":"x","windows":10,"fleet":[{"count":1,"weight":-2}]}`, "fleet[0].weight"},
		{"inverted cpu span", `{"name":"x","windows":10,"fleet":[{"count":1,"cpu":{"min":2,"max":1}}]}`, "fleet[0].cpu"},
		{"zero cpu min", `{"name":"x","windows":10,"fleet":[{"count":1,"cpu":{"min":0,"max":1}}]}`, "fleet[0].cpu"},
		{"bad mix", `{"name":"x","windows":10,"fleet":[{"count":1,"mix":"plutonium"}]}`, "fleet[0].mix"},
		{"huge mix weight", `{"name":"x","windows":10,"fleet":[{"count":1,"mix":"high=2000000000"}]}`, "fleet[0].mix"},
		{"loss above ceiling", valid(`,"link":{"loss":{"kind":"constant","value":0.6}}`), "link.loss.value"},
		{"unknown curve kind", valid(`,"demand":{"kind":"wavelet"}`), "demand.kind"},
		{"square duty zero", valid(`,"demand":{"kind":"square","high":1,"low":0,"period":10,"duty":0}`), "demand.duty"},
		{"burst width over slot", valid(`,"demand":{"kind":"burst","value":1,"high":2,"every":5,"width":9,"prob":0.5}`), "demand.width"},
		{"too many streams", `{"name":"x","windows":10,"fleet":[{"count":50000}]}`, "fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.in)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error does not wrap ErrInvalid: %v", err)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a *FieldError: %v", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("FieldError.Field = %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
}

// TestValidateStructLiteralNaN covers the path JSON cannot reach: NaN and Inf
// injected through Go struct literals must still be rejected.
func TestValidateStructLiteralNaN(t *testing.T) {
	sc := &Scenario{Name: "x", Windows: 10, Fleet: []Group{{Count: 1}}}

	sc.WindowSeconds = math.NaN()
	if err := sc.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("NaN window_seconds: got %v, want ErrInvalid", err)
	}
	sc.WindowSeconds = 0

	sc.NICMBps = math.Inf(1)
	if err := sc.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("Inf nic_mbps: got %v, want ErrInvalid", err)
	}
	sc.NICMBps = 0

	sc.Demand = &Curve{Kind: "constant", Value: math.NaN()}
	if err := sc.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("NaN curve value: got %v, want ErrInvalid", err)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"90s"`), &d); err != nil || d.Seconds() != 90 {
		t.Fatalf(`"90s" -> (%v, %v), want 90 s`, d.Seconds(), err)
	}
	if err := json.Unmarshal([]byte(`1.5`), &d); err != nil || d.Seconds() != 1.5 {
		t.Fatalf(`1.5 -> (%v, %v), want 1.5 s`, d.Seconds(), err)
	}
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var back Duration
	if err := json.Unmarshal(out, &back); err != nil || back.Seconds() != 90 {
		t.Fatalf("marshal round trip %s -> (%v, %v)", out, back.Seconds(), err)
	}
	for _, bad := range []string{`-1`, `"-5s"`, `"forever"`, `""`, `"2000h"`} {
		var d Duration
		err := json.Unmarshal([]byte(bad), &d)
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("duration %s: got %v, want ErrInvalid", bad, err)
		}
	}
}

func TestResolve(t *testing.T) {
	sc, builtin, err := Resolve("diurnal")
	if err != nil || !builtin || sc.Name != "diurnal" {
		t.Fatalf("Resolve(diurnal) = (%v, %v, %v)", sc, builtin, err)
	}

	sc, builtin, err = Resolve("testdata/scenarios/mini.json")
	if err != nil || builtin || sc.Name != "mini" {
		t.Fatalf("Resolve(file) = (%v, %v, %v)", sc, builtin, err)
	}

	_, _, err = Resolve("no-such-scenario")
	if err == nil || !strings.Contains(err.Error(), "diurnal") {
		t.Fatalf("Resolve(no-such-scenario) should list built-ins, got: %v", err)
	}
	if _, _, err = Resolve(""); err == nil {
		t.Fatal("Resolve of empty name succeeded")
	}
}

// TestBuiltinsValidate keeps the shipped catalog self-consistent: every
// built-in must pass its own DSL validation and carry claims.
func TestBuiltinsValidate(t *testing.T) {
	bs := Builtins()
	if len(bs) < 5 {
		t.Fatalf("built-in catalog has %d scenarios, want >= 5", len(bs))
	}
	for _, sc := range bs {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in %s: %v", sc.Name, err)
		}
		if len(sc.claims) == 0 {
			t.Errorf("built-in %s carries no claims", sc.Name)
		}
	}
}

// TestFileScenarioCarriesNoClaims: claims belong to the built-in, not to
// its name. A scenario file that reuses a built-in's name is judged by
// nothing, like every other file, so expdriver fails it as having verified
// nothing instead of passing it on claims calibrated for another workload.
func TestFileScenarioCarriesNoClaims(t *testing.T) {
	sc, err := Parse([]byte(`{"name":"hetfleet","windows":20,"fleet":[
		{"tenant":"gold","count":10,"weight":3},
		{"tenant":"silver","count":50}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RigNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Claims {
		t.Errorf("file scenario named %q was judged by claim %s (pass %v: %s)", sc.Name, c.Name, c.Pass, c.Detail)
	}
}
