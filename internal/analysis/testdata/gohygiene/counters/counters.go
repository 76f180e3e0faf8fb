//worksimtest:importpath repro/cmd/fixturecounters

// Package counters exercises gohygiene outside the simulation packages: the
// typed-atomics rule applies to every package, the join-tracking rule only
// to the simulation packages, so the bare go statement here is clean.
package counters

import "sync/atomic"

type plain struct{ hits int64 }

type typed struct{ hits atomic.Int64 }

func bump(p *plain, t *typed) int64 {
	atomic.AddInt64(&p.hits, 1) // want `atomic\.AddInt64 on a plain variable`
	t.hits.Add(1)               // clean: a typed atomic admits no plain access
	return t.hits.Load()
}

func spawn(t *typed) {
	go t.hits.Add(1) // clean: join-tracking is a simulation-package rule
}
