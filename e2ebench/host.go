package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// host identifies the machine a result came from, so two results can be
// compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	JournalFS  string `json:"journal_fs"`
	Network    string `json:"network"`
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// cpuTicks reads the host's aggregate CPU counters from /proc/stat: total
// ticks and the ticks stolen by the hypervisor. ok is false where they are
// not available.
func cpuTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

func hostInfo() (host, error) {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Network:    "loopback, no injected delay",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close()
	}
	// The evolve workload's journal lives under the temporary directory.
	var st syscall.Statfs_t
	if err := syscall.Statfs(os.TempDir(), &st); err != nil {
		return h, fmt.Errorf("statfs %s: %w", os.TempDir(), err)
	}
	h.JournalFS = fsNames[int64(st.Type)]
	if h.JournalFS == "" {
		h.JournalFS = fmt.Sprintf("0x%x", st.Type)
	}
	return h, nil
}
