package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"syscall"
	"time"
)

// fsTypes names the filesystem magic numbers a data directory is likely to
// sit on; anything else is printed in hex.
var fsTypes = map[int64]string{
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
}

// statDir returns the filesystem type of dir and the bytes free on it.
func statDir(dir string) (fsType string, free int64, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", 0, fmt.Errorf("statfs %s: %w", dir, err)
	}
	fsType, ok := fsTypes[int64(st.Type)]
	if !ok {
		fsType = fmt.Sprintf("%#x", st.Type)
	}
	return fsType, int64(st.Bavail) * st.Bsize, nil
}

// cpuTime returns user+system CPU time of the process (RUSAGE_SELF) or of
// the calling thread (RUSAGE_THREAD).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // only a bad `who` fails, and both are constants
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's maximum resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// diskBytes sums the sizes of the regular files under dirs.
func diskBytes(dirs []string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
