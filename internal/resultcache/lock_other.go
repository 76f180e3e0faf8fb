//go:build !unix

package resultcache

import "os"

// Without advisory locks no segment can be shown idle, so Open never
// compacts.
func lock(*os.File) error { return nil }

func tryLock(*os.File) bool { return false }

func unlock(*os.File) {}
