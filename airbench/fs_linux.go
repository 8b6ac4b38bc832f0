//go:build linux

package main

import (
	"fmt"
	"syscall"
)

// filesystemType names the filesystem holding dir: the archive's seal
// fsync costs what the filesystem makes it cost, and tmpfs makes it free.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
		0x01021997: "9p",
		0xF2F52010: "f2fs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%X", st.Type)
}
