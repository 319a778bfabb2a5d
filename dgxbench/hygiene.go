package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// leftovers lists what this process still holds after its workload was
// closed: listening TCP sockets and child processes. The benchmark
// starts servers only in-process and spawns nothing, so the list must be
// empty; a non-empty list marks the run incorrect.
func leftovers() ([]string, error) {
	var out []string
	mine, err := socketInodes()
	if err != nil {
		return nil, err
	}
	for _, table := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		ls, err := listeners(table)
		if err != nil {
			return nil, err
		}
		for inode, addr := range ls {
			if mine[inode] {
				out = append(out, "listening socket "+addr)
			}
		}
	}
	kids, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil {
		return nil, err
	}
	for _, k := range kids {
		b, err := os.ReadFile(k)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		for _, pid := range strings.Fields(string(b)) {
			out = append(out, "child process "+pid)
		}
	}
	return out, nil
}

// socketInodes returns the inodes of the sockets among this process's
// open file descriptors.
func socketInodes() (map[string]bool, error) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil {
			continue // closed since ReadDir (the ReadDir fd itself)
		}
		if inode, ok := strings.CutPrefix(target, "socket:["); ok {
			out[strings.TrimSuffix(inode, "]")] = true
		}
	}
	return out, nil
}

// listeners parses a /proc/net/tcp table into listening-socket inodes
// and their local addresses.
func listeners(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil // no IPv6 in this kernel
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 10 {
			continue
		}
		const listen = "0A"
		if f[3] == listen {
			out[f[9]] = f[1]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return out, nil
}
