//go:build unix

package resultcache

import (
	"os"
	"syscall"
)

// lock takes f's exclusive advisory lock, waiting for it. A writing Cache
// holds the lock on its own segment until Close, or until its process
// dies.
func lock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}

// tryLock takes f's exclusive advisory lock if no one holds it.
func tryLock(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

// unlock releases a lock tryLock took. A lock it fails to release is
// released by Close; until then it only keeps other Opens from compacting
// the segment.
func unlock(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
