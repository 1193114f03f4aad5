package vfs

import (
	"errors"
	"os"
	"syscall"
)

// Allocate is fallocate(2) in its default mode: blocks for [0, size) are
// reserved as unwritten extents and the file size grows to size.
func (f osFile) Allocate(size int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var aerr error
	if err := rc.Control(func(fd uintptr) {
		for {
			aerr = syscall.Fallocate(int(fd), 0, 0, size)
			if aerr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if aerr == nil || errors.Is(aerr, syscall.EOPNOTSUPP) || errors.Is(aerr, syscall.ENOSYS) {
		return nil
	}
	return &os.PathError{Op: "fallocate", Path: f.Name(), Err: aerr}
}
