//go:build !linux

package vfs

// Allocate does nothing off Linux: writes past the end of the file extend
// it as they always did.
func (osFile) Allocate(int64) error { return nil }
