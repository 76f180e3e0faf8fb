// Package prims holds the sync-primitive copies that go vet's copylocks
// check owns, each beside a clean counterpart. The wants are vet's
// messages; a lock copy at a return is reported at the return statement.
package prims

import "sync"

// guarded contains a lock, so copying it copies the lock.
type guarded struct {
	mu sync.Mutex
	n  int
}

func takesValue(mu sync.Mutex) { mu.Lock() } // want `takesValue passes lock by value: sync\.Mutex`

func takesPointer(mu *sync.Mutex) { mu.Lock() } // clean

func takesStruct(g guarded) int { return g.n } // want `takesStruct passes lock by value: .*guarded contains sync\.Mutex`

func takesStructPointer(g *guarded) int { return g.n } // clean

func returnsValue() sync.WaitGroup {
	var wg sync.WaitGroup
	return wg // want `return copies lock value: sync\.WaitGroup`
}

func returnsPointer() *sync.WaitGroup { return new(sync.WaitGroup) } // clean

func copies() {
	var mu sync.Mutex
	dup := mu // want `assignment copies lock value to dup: sync\.Mutex`
	dup.Lock()

	fresh := sync.Mutex{} // clean: a composite literal is initialization, not a copy
	fresh.Lock()

	ptr := &mu // clean: taking a pointer shares the lock
	ptr.Lock()
}
