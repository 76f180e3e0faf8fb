package serve

import (
	"fmt"
	"sync"
)

// registry is the in-memory job table behind /v1/runs and /v1/sweeps: IDs
// are dense and ordered ("r-000001", "r-000002", ...) so listings are
// deterministic and correlate trivially with request logs.
type registry[T any] struct {
	prefix string
	kind   string // "run" or "sweep", for 404s and the listing key

	mu   sync.Mutex
	next int
	jobs map[string]T
	ids  []string // insertion (= ID) order
}

func newRegistry[T any](prefix, kind string) *registry[T] {
	return &registry[T]{prefix: prefix, kind: kind, jobs: make(map[string]T)}
}

// add allocates the next ID and registers the job make builds for it.
func (r *registry[T]) add(make func(id string) T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	id := fmt.Sprintf("%s-%06d", r.prefix, r.next)
	j := make(id)
	r.jobs[id] = j
	r.ids = append(r.ids, id)
	return j
}

// get looks a job up by ID.
func (r *registry[T]) get(id string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// all returns every job in ID order, which is insertion order (a string
// sort is not, once IDs outgrow their padding).
func (r *registry[T]) all() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.jobs[id])
	}
	return out
}
