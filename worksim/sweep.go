package worksim

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/shard"
	"repro/worksim/event"
)

// Sweep configuration and result types, re-exported from the campaign
// engine. SweepResult.JSON is the public machine-readable export — its
// schema (field names and order) is locked by a golden-file test.
type (
	// SweepOptions configures a scenario sweep: catalog scenarios × security
	// profiles × seeds, with optional per-seed timeseries sampling and
	// early-stop predicates.
	SweepOptions = campaign.SweepOptions
	// SweepResult is the outcome of a full sweep, cells ordered
	// scenario-major in the requested order.
	SweepResult = campaign.SweepResult
	// SweepCell is one (scenario, profile) cell with its per-seed runs and
	// aggregates.
	SweepCell = campaign.SweepCell
	// SeedRange is the seed convention: Count consecutive seeds from Base.
	SeedRange = campaign.SeedRange
	// TimePoint is one downsampled sample of a run's per-tick timeseries.
	TimePoint = campaign.TimePoint
	// ShardSel selects one shard of a sharded sweep (SweepOptions.Shard):
	// index i of count N, partitioning the scenario × profile × seed cube by
	// a stable hash that is independent of enumeration order.
	ShardSel = shard.Sel
	// ShardKey identifies one (scenario, profile, seed) run — the unit the
	// shard partition assigns.
	ShardKey = shard.Key
	// ShardInfo is the shard header a sharded sweep result carries (and
	// MergeSweeps strips).
	ShardInfo = campaign.ShardInfo
	// SweepStats carries a sweep's live execution counters (fresh runs,
	// cache hits/misses/corruptions); hand one to SweepOptions.Stats and
	// snapshot it with View. Counters are never part of sweep JSON, so cold
	// and warm runs stay byte-identical.
	SweepStats = campaign.SweepStats
	// SweepStatsView is a point-in-time snapshot of SweepStats.
	SweepStatsView = campaign.SweepStatsView
)

// DefaultSweepDuration is the per-run simulated duration when
// SweepOptions.Duration is zero.
const DefaultSweepDuration = campaign.DefaultSweepDuration

// Sweep fans the scenario × profile × seed cross-product out as one queue
// of runs over one bounded worker pool (SweepOptions.Parallel wide, 0 =
// GOMAXPROCS) and aggregates each cell's per-seed metrics into mean /
// stddev / 95%-CI summaries. For a fixed seed set the result (and its JSON
// export) is byte-identical regardless of SweepOptions.Parallel.
//
// The context cancels the sweep end to end: workers stop claiming runs,
// in-flight simulation runs stop between control ticks, and Sweep returns
// ctx.Err() once the pool has drained — no goroutines outlive the call. A
// context that never fires yields byte-identical output to
// context.Background().
func Sweep(ctx context.Context, opts SweepOptions) (*SweepResult, error) {
	return campaign.Sweep(ctx, opts)
}

// EarlyStopByName resolves a named early-stop predicate (collision, unsafe,
// safe-stop, first-alert) — the CLI surface of SweepOptions.EarlyStop. The
// empty name resolves to nil (no early stop). Callers that cache must also
// record the name in SweepOptions.EarlyStopName so the predicate enters the
// run key.
func EarlyStopByName(name string) (func(event.TickSnapshot) bool, error) {
	return campaign.EarlyStopByName(name)
}

// ParseShard parses an "i/N" shard selector (e.g. "0/4") — the CLI surface
// of SweepOptions.Shard. "0/1" means unsharded.
func ParseShard(s string) (ShardSel, error) { return shard.Parse(s) }

// AssignShard returns which shard of count owns a run — the stable hash
// partition sharded sweeps and MergeSweeps agree on. It depends only on the
// key and count, never on enumeration order, so any process computes the
// same answer.
func AssignShard(k ShardKey, count int) int { return shard.Assign(k, count) }

// MergeSweeps combines a complete set of sharded sweep results (any order)
// into the single result an unsharded sweep would have produced — the JSON
// export of the merge is byte-identical to the single-process sweep. It
// fails loudly on a missing, duplicate or inconsistent shard, or any seed
// reported by a shard that does not own it.
func MergeSweeps(in []*SweepResult) (*SweepResult, error) {
	return campaign.MergeSweeps(in)
}

// MergeSweepJSON merges serialized sharded sweep results and returns the
// merged result plus its indented JSON export.
func MergeSweepJSON(blobs [][]byte) (*SweepResult, []byte, error) {
	return campaign.MergeSweepJSON(blobs)
}
