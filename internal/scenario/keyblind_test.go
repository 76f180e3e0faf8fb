package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/tracefmt"
	"repro/internal/worksite"
)

// TestKeyBlind proves that no observable byte depends on key material, the
// property that lets one security bundle serve every cell of a sweep and
// every run of the daemon. Each catalog scenario runs under the secured
// profile at one seed over two bundles commissioned from different key
// seeds; the report JSON and the trace bytes must be identical.
func TestKeyBlind(t *testing.T) {
	const (
		seed    = 42
		horizon = 2 * time.Minute
	)
	for _, name := range List() {
		spec, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spec = spec.WithProfile(worksite.Secured())
		run := func(keySeed int64) (report, trace []byte, caKey []byte) {
			t.Helper()
			sh, err := worksite.CommissionSecurity(spec.Config(keySeed))
			if err != nil {
				t.Fatalf("%s: commission under key seed %d: %v", name, keySeed, err)
			}
			sess, _, err := buildShared(spec, sh, nil, seed, horizon)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			var buf bytes.Buffer
			w := tracefmt.NewWriter(&buf)
			sess.Subscribe(w.Observer())
			rep, err := sess.Run(context.Background(), horizon)
			if err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			report, err = json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return report, buf.Bytes(), sess.Site().CA().Cert().PublicKey
		}
		repA, traceA, keyA := run(0)
		repB, traceB, keyB := run(7)
		if bytes.Equal(keyA, keyB) || len(traceA) == 0 {
			t.Fatalf("%s: same CA key under key seeds 0 and 7, or an empty trace; the test would prove nothing", name)
		}
		if !bytes.Equal(repA, repB) {
			t.Errorf("%s: report depends on key material:\nkey seed 0: %s\nkey seed 7: %s", name, repA, repB)
		}
		if !bytes.Equal(traceA, traceB) {
			t.Errorf("%s: trace depends on key material (%d vs %d bytes)", name, len(traceA), len(traceB))
		}
	}
}
