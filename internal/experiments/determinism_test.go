package experiments

// Determinism regression tests: the parallel campaign runner (and the whole
// "identical adversary schedule" comparison methodology of E5) depends on
// every experiment being a pure function of its seed. Running the same
// experiment twice with the same seed must produce byte-identical rendered
// tables and figures — any drift here (map-iteration order leaking into a
// table, wall-clock values in a rendered cell, shared mutable state) breaks
// the Monte-Carlo aggregation guarantees.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestRegistryDeterministicRendering runs every registered experiment twice
// through its registered Run at its Defaults with seed 42 and requires
// byte-identical rendered tables and figures.
func TestRegistryDeterministicRendering(t *testing.T) {
	for _, id := range campaign.Default.IDs() {
		exp, _ := campaign.Lookup(id)
		t.Run(id, func(t *testing.T) {
			render := func() string {
				p := exp.Defaults
				p.Seed = 42
				out, err := exp.Run(context.Background(), p)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				var sb strings.Builder
				for _, tab := range out.Tables {
					sb.WriteString(tab.Render())
				}
				for _, fig := range out.Figures {
					sb.WriteString(fig.Render())
				}
				return sb.String()
			}
			a, b := render(), render()
			if a != b {
				t.Fatalf("%s artifacts not byte-identical across same-seed runs:\n--- first ---\n%s\n--- second ---\n%s", id, a, b)
			}
		})
	}
}

// TestE1SeedSensitivity guards the other direction: different seeds must
// actually produce different trajectories, otherwise the campaign's seed
// sweep measures nothing.
func TestE1SeedSensitivity(t *testing.T) {
	one, err := E1WorksiteBaseline(context.Background(), 1, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	two, err := E1WorksiteBaseline(context.Background(), 2, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if one.Table.Render() == two.Table.Render() {
		t.Fatal("seeds 1 and 2 produced identical E1 tables; seed plumbing broken")
	}
}
