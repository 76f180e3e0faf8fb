package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/worksite"
)

// TestCatalogNamesSortedUnique pins the catalog contract: List is sorted,
// free of duplicates, and every name resolves to a spec carrying that name.
func TestCatalogNamesSortedUnique(t *testing.T) {
	names := List()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("catalog names not sorted: %v", names)
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate catalog name %q", name)
		}
		seen[name] = true
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("Get(%q) returned spec named %q", name, s.Name)
		}
		if s.Description == "" {
			t.Fatalf("catalog entry %q has no description", name)
		}
	}
}

// TestCatalogCoversAttackRegistry: every registered attack class has a
// same-named catalog scenario (the E5 matrix rows), and ForAttack resolves
// both it and the "none" control.
func TestCatalogCoversAttackRegistry(t *testing.T) {
	for _, name := range AttackNames() {
		s, err := ForAttack(name)
		if err != nil {
			t.Fatalf("ForAttack(%q): %v", name, err)
		}
		if len(s.Attacks) != 1 || s.Attacks[0].Name != name {
			t.Fatalf("ForAttack(%q) schedule = %+v, want exactly one %q window", name, s.Attacks, name)
		}
	}
	clean, err := ForAttack("none")
	if err != nil {
		t.Fatalf("ForAttack(none): %v", err)
	}
	if len(clean.Attacks) != 0 || clean.Name != "baseline" {
		t.Fatalf("ForAttack(none) = %q with %d attacks, want clean baseline", clean.Name, len(clean.Attacks))
	}
	if _, err := ForAttack("no-such-attack"); err == nil {
		t.Fatal("ForAttack accepted an unknown attack class")
	}
}

// TestCatalogJSONRoundTrip: every catalog spec survives marshal/unmarshal
// exactly — the serialized form is the spec.
func TestCatalogJSONRoundTrip(t *testing.T) {
	for _, name := range List() {
		spec, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		data, err := spec.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got Spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(spec, got) {
			t.Fatalf("%s: JSON round-trip drifted:\nbefore: %+v\nafter:  %+v", name, spec, got)
		}
	}
}

// TestCatalogSpecsBuild: every catalog entry arms and schedules without
// error under both profiles — no spec can rot into an unrunnable state.
func TestCatalogSpecsBuild(t *testing.T) {
	for _, name := range List() {
		spec, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		sess, c, err := Build(spec.WithProfile(worksite.Secured()), 3, 10*time.Minute)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if sess == nil || sess.Site() == nil || c == nil {
			t.Fatalf("Build(%q) returned nil session or campaign", name)
		}
		if sess.Horizon() != 10*time.Minute {
			t.Fatalf("Build(%q) horizon = %v, want 10m", name, sess.Horizon())
		}
		if got := len(c.Windows()); got != len(spec.Attacks) {
			t.Fatalf("Build(%q) scheduled %d windows, spec has %d attacks", name, got, len(spec.Attacks))
		}
	}
}

// TestBuildDeterminism: the same spec and seed must produce byte-identical
// reports — the property the whole campaign aggregation rests on.
func TestBuildDeterminism(t *testing.T) {
	spec, err := Get("multi-attack")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		rep, err := Run(context.Background(), spec.WithProfile(worksite.Secured()), 42, 8*time.Minute)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		j, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal report: %v", err)
		}
		return j
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same spec+seed produced different reports:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestRunSeedSensitivity guards the converse: different seeds must diverge,
// or the sweep's seed axis measures nothing.
func TestRunSeedSensitivity(t *testing.T) {
	spec := Baseline()
	one, err := Run(context.Background(), spec, 1, 8*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(context.Background(), spec, 2, 8*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(one.Metrics)
	jb, _ := json.Marshal(two.Metrics)
	if string(ja) == string(jb) {
		t.Fatal("seeds 1 and 2 produced identical metrics; seed plumbing broken")
	}
}

// TestParseOverlay: a partial JSON file overlays the baseline — unstated
// fields keep their baseline values.
func TestParseOverlay(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "wet-jam",
		"weather": {"rain": 0.5},
		"attacks": [{"name": "gnss-jam", "startFrac": 0.2, "stopFrac": 0.6}]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	base := Baseline()
	if spec.Name != "wet-jam" || spec.Weather.Rain != 0.5 {
		t.Fatalf("overrides not applied: %+v", spec)
	}
	if spec.Site != base.Site || spec.Timing != base.Timing || !spec.Drone || spec.Workers != base.Workers {
		t.Fatalf("baseline fields not preserved: %+v", spec)
	}
	if len(spec.Attacks) != 1 || spec.Attacks[0].Name != "gnss-jam" {
		t.Fatalf("attack schedule not decoded: %+v", spec.Attacks)
	}
	// An empty file is the plain baseline under the "custom" name.
	empty, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatalf("Parse({}): %v", err)
	}
	if empty.Name != "custom" || empty.Site != base.Site {
		t.Fatalf("empty spec != baseline: %+v", empty)
	}
}

// TestSpecValidation: unknown attack classes and out-of-range window
// fractions are rejected at parse/build time with messages naming the slot.
func TestSpecValidation(t *testing.T) {
	if _, err := Parse([]byte(`{"attacks":[{"name":"warp-drive","startFrac":0.1,"stopFrac":0.5}]}`)); err == nil ||
		!strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("unknown attack class not rejected: %v", err)
	}
	if _, err := Parse([]byte(`{"attacks":[{"name":"gnss-jam","startFrac":-0.1,"stopFrac":0.5}]}`)); err == nil ||
		!strings.Contains(err.Error(), "fractions") {
		t.Fatalf("bad window fraction not rejected: %v", err)
	}
	spec := Baseline()
	spec.Site.Cols = 0
	if _, _, err := Build(spec, 1, time.Minute); err == nil ||
		!strings.Contains(err.Error(), "grid") {
		t.Fatalf("invalid worksite config not rejected: %v", err)
	}
	if _, _, err := Build(Baseline(), 1, 0); err == nil {
		t.Fatal("zero duration not rejected")
	}
}

// TestAttackNamesSorted pins the registry listing used by CLI help strings
// and the E5 matrix ordering.
func TestAttackNamesSorted(t *testing.T) {
	names := AttackNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("attack names not sorted: %v", names)
	}
	for _, want := range []string{"rf-jamming", "deauth-flood", "gnss-spoof", "gnss-jam", "camera-blind", "replay", "command-injection"} {
		if _, ok := lookupAttack(want); !ok {
			t.Fatalf("built-in attack class %q missing from registry", want)
		}
	}
}

// TestProfiles: the named profile axis resolves and rejects unknowns.
func TestProfiles(t *testing.T) {
	for _, name := range Profiles() {
		if _, err := ResolveProfile(name); err != nil {
			t.Fatalf("ResolveProfile(%q): %v", name, err)
		}
	}
	sec, _ := ResolveProfile("secured")
	if sec != worksite.Secured() {
		t.Fatal("secured profile mismatch")
	}
	if _, err := ResolveProfile("tinfoil"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestParseSpecHardening is the table-driven error-path suite over the
// hardened Parse: declared horizons must be positive, attack schedule
// entries must be unique per class, and every rejection is a typed
// *SpecError naming the offending field — the contract the worksimd daemon
// relies on to answer HTTP 422 with a field pointer.
func TestParseSpecHardening(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		// field is the expected SpecError.Field; empty means the document
		// must parse cleanly.
		field string
		// reason is a substring of the expected SpecError.Reason.
		reason string
	}{
		{
			name: "positive declared horizon accepted",
			doc:  `{"horizonNs": 60000000000}`,
		},
		{
			name: "undeclared horizon accepted",
			doc:  `{}`,
		},
		{
			name:   "zero declared horizon rejected",
			doc:    `{"horizonNs": 0}`,
			field:  "horizonNs",
			reason: "must be positive",
		},
		{
			name:   "negative declared horizon rejected",
			doc:    `{"horizonNs": -1}`,
			field:  "horizonNs",
			reason: "must be positive",
		},
		{
			name: "distinct attack classes accepted",
			doc:  `{"attacks":[{"name":"gnss-jam","startFrac":0.1,"stopFrac":0.3},{"name":"gnss-spoof","startFrac":0.5,"stopFrac":0.7}]}`,
		},
		{
			name:   "duplicate attack schedule names rejected",
			doc:    `{"attacks":[{"name":"gnss-jam","startFrac":0.1,"stopFrac":0.3},{"name":"gnss-jam","startFrac":0.5,"stopFrac":0.7}]}`,
			field:  "attacks[1].name",
			reason: "duplicate",
		},
		{
			name:   "unknown attack class names its slot",
			doc:    `{"attacks":[{"name":"gnss-jam","startFrac":0.1,"stopFrac":0.3},{"name":"warp-drive"}]}`,
			field:  "attacks[1].name",
			reason: "unknown attack class",
		},
		{
			name:   "window fraction out of range names its slot",
			doc:    `{"attacks":[{"name":"gnss-jam","startFrac":1.5,"stopFrac":0.3}]}`,
			field:  "attacks[0]",
			reason: "fractions",
		},
		{
			name: "one-millisecond attack period accepted",
			doc:  `{"attacks":[{"name":"deauth-flood","startFrac":0,"stopFrac":1,"params":{"periodMs":1}}]}`,
		},
		{
			name:   "sub-millisecond attack period rejected",
			doc:    `{"attacks":[{"name":"deauth-flood","startFrac":0,"stopFrac":1,"params":{"periodMs":0.001}}]}`,
			field:  "attacks[0].params.periodMs",
			reason: "at least 1 ms",
		},
		{
			name:   "period that truncates to a zero duration rejected",
			doc:    `{"attacks":[{"name":"replay","startFrac":0,"stopFrac":1,"params":{"periodMs":1e-7}}]}`,
			field:  "attacks[0].params.periodMs",
			reason: "at least 1 ms",
		},
		{
			name:   "zero attack period rejected",
			doc:    `{"attacks":[{"name":"gnss-jam","startFrac":0,"stopFrac":1},{"name":"command-injection","params":{"periodMs":0}}]}`,
			field:  "attacks[1].params.periodMs",
			reason: "at least 1 ms",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Parse(%s): unexpected error %v", tc.doc, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse(%s) accepted, want SpecError on field %s", tc.doc, tc.field)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Parse(%s): error %v is not a *SpecError", tc.doc, err)
			}
			if se.Field != tc.field {
				t.Fatalf("Parse(%s): SpecError.Field = %q, want %q", tc.doc, se.Field, tc.field)
			}
			if !strings.Contains(se.Reason, tc.reason) {
				t.Fatalf("Parse(%s): SpecError.Reason = %q, want substring %q", tc.doc, se.Reason, tc.reason)
			}
			// Sanity: the flat message names the field too.
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Parse(%s): error text %q does not name field %s", tc.doc, err, tc.field)
			}
		})
	}
}

// TestSpecHorizonRoundTrip: a declared horizon survives the canonical JSON
// round trip and stays omitted when undeclared.
func TestSpecHorizonRoundTrip(t *testing.T) {
	spec := Baseline()
	spec.Horizon = 4 * time.Minute
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Horizon != 4*time.Minute {
		t.Fatalf("horizon after round trip = %v, want 4m", back.Horizon)
	}
	plain, err := Baseline().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "horizonNs") {
		t.Fatalf("undeclared horizon serialized: %s", plain)
	}
}
