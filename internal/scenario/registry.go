package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/worksite"
)

// ArmContext is what an attack class gets to wire itself onto a commissioned
// site: the site's attack surfaces, the campaign to append windows to, and
// the resolved activation window.
type ArmContext struct {
	Site     *worksite.Site
	Campaign *attack.Campaign
	// Start and Stop are the activation window in simulated time, already
	// resolved from the spec's fractions of Duration.
	Start, Stop time.Duration
	// Duration is the total simulated run length.
	Duration time.Duration
	// Params are the attack-class knobs from the spec.
	Params Params
}

// ArmFunc arms one attack class: it constructs the attack against the site's
// surfaces and appends its window(s) to the campaign.
type ArmFunc func(ctx ArmContext) error

// attackClass is one registered attack with its documentation.
type attackClass struct {
	name        string
	description string
	arm         ArmFunc
}

var attackClasses = map[string]attackClass{}

// RegisterAttack adds an attack class to the arming registry. Every consumer
// (the E5 matrix, the worksite-sim -attack flag, catalog specs, sweep cells)
// resolves names through this registry, so the accepted set can never drift
// between harnesses. Registration happens at init time; conflicts panic.
func RegisterAttack(name, description string, arm ArmFunc) {
	if name == "" || arm == nil {
		panic("scenario: attack class needs a name and an ArmFunc")
	}
	if _, dup := attackClasses[name]; dup {
		panic(fmt.Sprintf("scenario: attack class %q already registered", name))
	}
	attackClasses[name] = attackClass{name: name, description: description, arm: arm}
}

func lookupAttack(name string) (attackClass, bool) {
	c, ok := attackClasses[name]
	return c, ok
}

// AttackNames returns every registered attack class, sorted.
func AttackNames() []string {
	out := make([]string, 0, len(attackClasses))
	for name := range attackClasses {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AttackDescription returns the one-line summary of a registered class.
func AttackDescription(name string) string { return attackClasses[name].description }

// The built-in attack classes of the paper's Section IV-C survey. Each armer
// reads its knobs from Params with the historical experiment values as
// defaults, so a bare {name, window} spec reproduces the E5 cells.
//
// Registered from a package-level var (not func init) so the registry is
// populated before the catalog's init runs, regardless of file order.
var _ = registerBuiltinAttacks()

func registerBuiltinAttacks() struct{} {
	RegisterAttack("rf-jamming",
		"RF jammer on the victim channel (params: channel, powerDBm, wideband, posXFrac, posYFrac)",
		func(ctx ArmContext) error {
			grid := ctx.Site.Grid()
			pos := geo.V(
				ctx.Params.Get("posXFrac", 0.5)*grid.Width(),
				ctx.Params.Get("posYFrac", 0.5)*grid.Height(),
			)
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewJamming(
				ctx.Site.Medium(), "jam", pos,
				int(ctx.Params.Get("channel", 1)),
				ctx.Params.Get("powerDBm", 38),
				ctx.Params.Bool("wideband", true)))
			return nil
		})

	RegisterAttack("deauth-flood",
		"forged de-authentication frames against the forwarder (params: periodMs)",
		func(ctx ArmContext) error {
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewDeauthFlood(
				ctx.Site.AttackerAdapter(), worksite.NodeForwarder, worksite.NodeCoordinator,
				paramPeriod(ctx.Params, 200*time.Millisecond)))
			return nil
		})

	RegisterAttack("gnss-spoof",
		"GNSS spoofing displacing the forwarder's fixes (params: offsetEastM, offsetNorthM)",
		func(ctx ArmContext) error {
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewGNSSSpoof(
				ctx.Site.ForwarderGNSS(), geo.V(
					ctx.Params.Get("offsetEastM", 60),
					ctx.Params.Get("offsetNorthM", 40))))
			return nil
		})

	RegisterAttack("gnss-jam",
		"GNSS jamming denying the forwarder its position fix",
		func(ctx ArmContext) error {
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewGNSSJam(ctx.Site.ForwarderGNSS()))
			return nil
		})

	RegisterAttack("camera-blind",
		"laser/glare blinding of the perception cameras (forwarder and drone)",
		func(ctx ArmContext) error {
			site := ctx.Site
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewCameraBlind("camera-blind", func(b bool) {
				site.ForwarderCamera().Blinded = b
				if cam := site.DroneCamera(); cam != nil {
					cam.Blinded = b
				}
			}))
			return nil
		})

	RegisterAttack("replay",
		"records forwarder-bound frames off the air and replays them verbatim (params: periodMs)",
		func(ctx ArmContext) error {
			// The recorder taps the medium from t=0 so the replay window has
			// captured traffic to draw from; the spec's StartFrac should leave
			// it that lead time (the catalog uses 0.2 where other classes
			// start at 0.1).
			rec := &attack.Recorder{FilterDst: worksite.NodeForwarder}
			med := ctx.Site.Medium()
			prev := med.Observer
			med.Observer = func(p radio.Packet, to radio.NodeID, sinr float64, cause radio.DropCause) {
				rec.Tap(p, to, sinr, cause)
				if prev != nil {
					prev(p, to, sinr, cause)
				}
			}
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewReplay(
				ctx.Site.AttackerAdapter(), rec, paramPeriod(ctx.Params, time.Second)))
			return nil
		})

	RegisterAttack("command-injection",
		"forged clear-stops commands claiming to come from the coordinator (params: periodMs)",
		func(ctx ArmContext) error {
			ctx.Campaign.Add(ctx.Start, ctx.Stop, attack.NewCommandInjection(
				ctx.Site.AttackerAdapter(), worksite.NodeCoordinator, worksite.NodeForwarder,
				func() []byte {
					return []byte(`{"type":"command","from":"coordinator","command":"clear-stops"}`)
				}, paramPeriod(ctx.Params, time.Second)))
			return nil
		})
	return struct{}{}
}

// paramPeriod reads the periodMs knob, falling back to def. Spec.Validate
// has checked that a declared period is at least 1 ms.
func paramPeriod(p Params, def time.Duration) time.Duration {
	return time.Duration(p.Get("periodMs", float64(def/time.Millisecond)) * float64(time.Millisecond))
}
