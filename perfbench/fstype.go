package main

import (
	"fmt"
	"syscall"
)

// fsMagic names the file systems a store directory usually sits on, by
// the f_type statfs(2) reports.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x65735546: "fuse",
	0x6969:     "nfs",
}

// fsType names the file system holding dir, for the record of where the
// service's store wrote.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
