package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestE1Baseline(t *testing.T) {
	res, err := E1WorksiteBaseline(context.Background(), 42, 15*time.Minute)
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	if res.Unsecured.Metrics.LogsDelivered == 0 || res.Secured.Metrics.LogsDelivered == 0 {
		t.Fatalf("baseline productivity zero: unsecured=%d secured=%d",
			res.Unsecured.Metrics.LogsDelivered, res.Secured.Metrics.LogsDelivered)
	}
	if res.Table.Rows() != 2 {
		t.Fatalf("table rows = %d", res.Table.Rows())
	}
}

func TestE2DronePOVShape(t *testing.T) {
	res := E2DronePOV(7, 40)
	if len(res.Points) != 8 {
		t.Fatalf("points = %d, want 8", len(res.Points))
	}
	// The paper's claim: at high occlusion the drone recovers detections.
	last := res.Points[len(res.Points)-1]
	if last.MissWithDrone >= last.MissFwOnly {
		t.Fatalf("at occlusion %.2f: drone miss %.2f >= fw-only %.2f",
			last.Occlusion, last.MissWithDrone, last.MissFwOnly)
	}
	// Forwarder-only misses grow with occlusion (first vs last).
	if res.Points[0].MissFwOnly >= last.MissFwOnly {
		t.Fatalf("fw-only miss rate not increasing: %.2f -> %.2f",
			res.Points[0].MissFwOnly, last.MissFwOnly)
	}
	if !strings.Contains(res.Figure.Render(), "miss_with_drone") {
		t.Fatal("figure rendering incomplete")
	}
}

func TestE2aFusionPolicy(t *testing.T) {
	res := E2aFusionPolicy(7, 30)
	if res.Table.Rows() != 3 || len(res.Points) != 3 {
		t.Fatalf("rows = %d points = %d, want 3 policies", res.Table.Rows(), len(res.Points))
	}
}

func TestE3TableI(t *testing.T) {
	tab := E3CharacteristicTable()
	if tab.Rows() != 8 {
		t.Fatalf("Table I rows = %d, want 8", tab.Rows())
	}
	out := tab.Render()
	for _, want := range []string{"Remote and Isolated Locations", "Heavy Machinery", "Autonomous Machinery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q", want)
		}
	}
}

func TestE4Transfer(t *testing.T) {
	res := E4KnowledgeTransfer()
	if !res.Transfer.FullyCovered {
		t.Fatalf("uncovered characteristics: %v", res.Transfer.UncoveredChars)
	}
	if res.Table.Rows() != 4 {
		t.Fatalf("rows = %d", res.Table.Rows())
	}
}

func TestE5MatrixShape(t *testing.T) {
	res, err := E5AttackMatrix(context.Background(), 11, 8*time.Minute)
	if err != nil {
		t.Fatalf("E5: %v", err)
	}
	// The matrix covers the clean control plus every attack class in the
	// scenario arming registry, each under both profiles.
	want := len(E5AttackNames()) * 2
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d (%d attacks x 2 profiles)", len(res.Rows), want, len(E5AttackNames()))
	}
	byKey := make(map[string]E5Row, len(res.Rows))
	for _, r := range res.Rows {
		byKey[r.Attack+"/"+r.Profile] = r
	}
	// Injection: unsecured applies forged commands, secured blocks them.
	if byKey["command-injection/unsecured"].Report.Metrics.CommandsApplied == 0 {
		t.Fatal("unsecured injection applied no commands")
	}
	if byKey["command-injection/secured"].Report.Metrics.CommandsApplied != 0 {
		t.Fatal("secured site applied forged commands")
	}
	// GNSS spoof: unsecured nav error exceeds secured.
	if byKey["gnss-spoof/unsecured"].Report.Metrics.NavErrMaxM <=
		byKey["gnss-spoof/secured"].Report.Metrics.NavErrMaxM {
		t.Fatal("spoofed nav error not worse unsecured")
	}
	// Secured site raises alerts under every attack (not under none).
	for _, atk := range []string{"rf-jamming", "deauth-flood", "gnss-spoof", "command-injection"} {
		if len(byKey[atk+"/secured"].Report.Alerts) == 0 {
			t.Fatalf("secured profile produced no alerts under %s", atk)
		}
	}
}

func TestE5bChannelAgility(t *testing.T) {
	res, err := E5bChannelAgility(context.Background(), 17, 12*time.Minute)
	if err != nil {
		t.Fatalf("E5b: %v", err)
	}
	if res.Table.Rows() != 2 || len(res.Rows) != 2 {
		t.Fatalf("rows = %d", res.Table.Rows())
	}
	out := res.Table.Render()
	if !strings.Contains(out, "true") {
		t.Fatalf("agility row missing:\n%s", out)
	}
}

func TestE5aIDSLatency(t *testing.T) {
	res, err := E5aIDSLatencyRun(context.Background(), 13, 8*time.Minute)
	if err != nil {
		t.Fatalf("E5a: %v", err)
	}
	if !res.Detected {
		t.Fatal("IDS did not detect the de-auth flood")
	}
	if res.DetectionLatency <= 0 || res.DetectionLatency > 30*time.Second {
		t.Fatalf("detection latency = %v, implausible", res.DetectionLatency)
	}
}

func TestE6CombinedRisk(t *testing.T) {
	res, err := E6CombinedRisk()
	if err != nil {
		t.Fatalf("E6: %v", err)
	}
	if res.Register.Rows() != len(res.Before) {
		t.Fatalf("register table rows = %d, want %d", res.Register.Rows(), len(res.Before))
	}
	if res.Interplay.Rows() != len(res.InterBefore) {
		t.Fatalf("interplay rows = %d", res.Interplay.Rows())
	}
}

func TestE7Assurance(t *testing.T) {
	res, err := E7Assurance(context.Background(), 42, 8*time.Minute)
	if err != nil {
		t.Fatalf("E7: %v", err)
	}
	if !res.Secured.SACEval.Supported {
		t.Fatalf("secured SAC unsupported: %v", res.Secured.SACEval.Unsupported)
	}
	if res.Unsecured.SACEval.Supported {
		t.Fatal("unsecured SAC supported")
	}
	if !res.Secured.Conformity.Ready || res.Unsecured.Conformity.Ready {
		t.Fatalf("conformity: secured=%v unsecured=%v",
			res.Secured.Conformity.Ready, res.Unsecured.Conformity.Ready)
	}
}

func TestE8SimValidity(t *testing.T) {
	res, err := E8SimValidity(3)
	if err != nil {
		t.Fatalf("E8: %v", err)
	}
	want := map[string]bool{
		"matched": true, "biased-mean": false, "wrong-variance": false, "degenerate": false,
	}
	for _, r := range res.Results {
		if r.Valid != want[r.Name] {
			t.Fatalf("%s: valid=%v, want %v", r.Name, r.Valid, want[r.Name])
		}
	}
}

func TestE10SOTIFExploration(t *testing.T) {
	res := E10SOTIFExploration(42, 12, 25)
	// The drone must not enlarge the unsafe areas, and typically shrinks them.
	if res.Improvement.UnsafeAfter > res.Improvement.UnsafeBefore {
		t.Fatalf("drone enlarged the unsafe area: %d -> %d",
			res.Improvement.UnsafeBefore, res.Improvement.UnsafeAfter)
	}
	if res.Improvement.Moved == 0 {
		t.Fatal("no scenarios moved out of the unsafe areas with the drone")
	}
	// Exploration discovers unknown-unsafe scenarios on the forwarder-only
	// configuration (that is the point of the activity).
	if len(res.WithoutDrone.Discovered) == 0 {
		t.Fatal("exploration discovered no unknown-unsafe scenarios")
	}
	if res.Table.Rows() != 2 {
		t.Fatalf("rows = %d", res.Table.Rows())
	}
}

func TestE9SecureSubstrate(t *testing.T) {
	res, err := E9SecureSubstrate(5)
	if err != nil {
		t.Fatalf("E9: %v", err)
	}
	if !res.HandshakeOK {
		t.Fatal("handshake failed")
	}
	if res.TamperTable.Rows() != 5 {
		t.Fatalf("tamper sweep rows = %d, want 5", res.TamperTable.Rows())
	}
}
