package policy

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/randutil"
)

func TestSpecValidateAndString(t *testing.T) {
	cases := []struct {
		spec    Spec
		wantSel Selection
		wantK   int     // Params(State{})
		wantR   float64 // likewise
		wantStr string
		wantErr string
	}{
		{Spec{Rule: RuleDeterministic}, SelectNone, 1, 0, "none", ""},
		{Spec{Rule: RuleNone}, SelectNone, 1, 0, "none", ""},
		{Spec{}, SelectNone, 1, 0, "none", ""},
		// The promotion-free rule never reads its fields.
		{Spec{Rule: RuleNone, K: 5, R: 0.5}, SelectNone, 1, 0, "none", ""},
		{Spec{Rule: RuleUniform, K: 1, R: 0.2}, SelectCoin, 1, 0.2, "uniform(k=1,r=0.2)", ""},
		{Spec{Rule: RuleSelective, K: 2, R: 0.1}, SelectUnexplored, 2, 0.1, "selective(k=2,r=0.1)", ""},
		{Spec{Rule: RuleEpsilonDecay, K: 1, R: 0.3, RMin: 0.05}, SelectUnexplored, 1, 0.3, "epsilon-decay(k=1,r=0.3,rmin=0.05)", ""},
		{Spec{Rule: "mystery"}, 0, 0, 0, "", "unknown rule"},
		{Spec{Rule: RuleSelective, K: 0, R: 0.1}, 0, 0, 0, "", "k must be"},
		{Spec{Rule: RuleUniform, K: 1, R: -0.1}, 0, 0, 0, "", "r must be"},
		{Spec{Rule: RuleEpsilonDecay, K: 1, R: 0.1, RMin: 0.2}, 0, 0, 0, "", "rmin"},
		// NaN compares false against every bound, so a range check
		// written as r < 0 || r > 1 admits it.
		{Spec{Rule: RuleSelective, K: 1, R: math.NaN()}, 0, 0, 0, "", "r must be"},
		{Spec{Rule: RuleUniform, K: 1, R: math.NaN()}, 0, 0, 0, "", "r must be"},
		{Spec{Rule: RuleEpsilonDecay, K: 1, R: math.NaN()}, 0, 0, 0, "", "r must be"},
		{Spec{Rule: RuleEpsilonDecay, K: 1, R: 0.3, RMin: math.NaN()}, 0, 0, 0, "", "rmin"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Validate(%+v) err = %v, want mention of %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Validate(%+v): %v", tc.spec, err)
			continue
		}
		if got := tc.spec.Selection(); got != tc.wantSel {
			t.Errorf("%+v selection = %v, want %v", tc.spec, got, tc.wantSel)
		}
		if k, r := tc.spec.Params(State{}); k != tc.wantK || r != tc.wantR {
			t.Errorf("%+v Params = (%d, %v), want (%d, %v)", tc.spec, k, r, tc.wantK, tc.wantR)
		}
		if got := tc.spec.String(); got != tc.wantStr {
			t.Errorf("%+v String() = %q, want %q", tc.spec, got, tc.wantStr)
		}
	}
}

func TestParseSpec(t *testing.T) {
	good := map[string]Spec{
		"deterministic":            {Rule: RuleDeterministic},
		"none":                     {Rule: RuleNone},
		"selective:1:0.1":          {Rule: RuleSelective, K: 1, R: 0.1},
		"uniform:2:0.25":           {Rule: RuleUniform, K: 2, R: 0.25},
		"epsilon-decay:1:0.2:0.02": {Rule: RuleEpsilonDecay, K: 1, R: 0.2, RMin: 0.02},
		" selective:1:0.1":         {Rule: RuleSelective, K: 1, R: 0.1},
		"epsilon-decay:3:0.5":      {Rule: RuleEpsilonDecay, K: 3, R: 0.5},
	}
	for in, want := range good {
		got, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", in, got, want)
		}
	}
	bad := []string{
		"", ":1:0.1", "selective:x:0.1", "selective:1:zz", "selective:1:0.1:0.05",
		"selective:1:0.1:0.05:9", "wat:1:0.1", "selective:0:0.1", "uniform:1:7",
		"selective:1:NaN", "epsilon-decay:1:0.2:NaN",
		// Trailing garbage: fmt.Sscanf stops at the first bad character
		// and reads these as valid numbers.
		"selective:1x:0.1junk", "selective:1x:0.1", "selective:1:0.1junk",
		"uniform:2:0.25%", "epsilon-decay:1:0.2:0.02x", "selective:1 2:0.1",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestEpsilonDecayParams(t *testing.T) {
	p := Spec{Rule: RuleEpsilonDecay, K: 2, R: 0.4, RMin: 0.1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		st    State
		wantR float64
	}{
		{State{}, 0.4},                           // no signal: full exploration
		{State{Pages: 100, ZeroAware: 100}, 0.4}, // everything unexplored
		{State{Pages: 100, ZeroAware: 0}, 0.1},   // fully explored: floor
		{State{Pages: 100, ZeroAware: 50}, 0.25}, // halfway: midpoint
		{State{Pages: 100, ZeroAware: 150}, 0.4}, // clamped
	}
	for _, tc := range cases {
		k, r := p.Params(tc.st)
		if k != 2 {
			t.Errorf("Params(%+v) k = %d, want 2", tc.st, k)
		}
		if diff := r - tc.wantR; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("Params(%+v) r = %v, want %v", tc.st, r, tc.wantR)
		}
	}
}

// TestScratchMergeZeroAlloc: the engine's steady-state merge allocates
// nothing once the scratch buffers have grown.
func TestScratchMergeZeroAlloc(t *testing.T) {
	det := Slice{1, 2, 3, 4, 5, 6, 7, 8}
	pool := Slice{9, 10, 11, 12}
	rng := randutil.New(3)
	var sc Scratch
	sc.MergeTagged(&det, &pool, 2, 0.3, rng) // grow buffers
	allocs := testing.AllocsPerRun(100, func() {
		sc.MergeTagged(&det, &pool, 2, 0.3, rng)
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeTagged allocates %v per run", allocs)
	}
}

// TestMergeTaggedMatchesMerge: tagged and untagged merges of the same
// inputs at the same seed produce the same list, and the tags mark
// exactly the pool-sourced slots.
func TestMergeTaggedMatchesMerge(t *testing.T) {
	det := Slice{1, 2, 3, 4, 5}
	pool := Slice{10, 11, 12}
	for seed := uint64(1); seed <= 50; seed++ {
		var sc Scratch
		merged, tags := sc.MergeTagged(det, pool, 2, 0.4, randutil.New(seed))
		plain := Merge(det, pool, 2, 0.4, randutil.New(seed), nil)
		if !reflect.DeepEqual(merged, plain) {
			t.Fatalf("seed %d: tagged %v != untagged %v", seed, merged, plain)
		}
		poolSet := map[int]bool{10: true, 11: true, 12: true}
		for i, id := range merged {
			if tags[i] != poolSet[id] {
				t.Fatalf("seed %d: slot %d (page %d) tagged %v", seed, i, id, tags[i])
			}
		}
	}
}

// FuzzParseSpec: ParseSpec reads meta.json's logged arms from disk. Whatever
// it accepts must validate, and its Compact form must parse back to a spec
// that renders, pools and parameterizes the same.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"deterministic", "none", "selective:1:0.1", "uniform:2:0.25",
		"epsilon-decay:1:0.2:0.02", " selective:1:0.1", "epsilon-decay:3:0.5",
		"selective:1:0.3", "selective:1:1", "selective:1:NaN",
		"selective:1x:0.1junk", "uniform:1:1e-3", "epsilon-decay:2:0.2:-0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which fails Validate: %v", in, spec, err)
		}
		back, err := ParseSpec(spec.Compact())
		if err != nil {
			t.Fatalf("Compact %q of ParseSpec(%q) does not parse: %v", spec.Compact(), in, err)
		}
		if back.Compact() != spec.Compact() || back.Selection() != spec.Selection() {
			t.Fatalf("%q: round trip %+v != %+v", in, back, spec)
		}
		k1, r1 := spec.Params(State{})
		k2, r2 := back.Params(State{})
		if k1 != k2 || r1 != r2 {
			t.Fatalf("%q: round trip params (%d, %v) != (%d, %v)", in, k2, r2, k1, r1)
		}
	})
}
