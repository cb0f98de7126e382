package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"tpuising/internal/rng"
)

// host identifies where and how a result was measured. Results whose host
// fields differ (core count, pinned CPU, GOMAXPROCS, AVX2 path, build tags,
// Go version, CPU, checkpoint filesystem) are different experiments and must
// not be compared as one.
type host struct {
	NumCPU            int    `json:"nproc"`
	PinnedCPU         int    `json:"pinned_cpu"`
	LoadGOMAXPROCS    int    `json:"load_gomaxprocs"`
	DaemonGOMAXPROCS  int    `json:"daemon_gomaxprocs"`
	DaemonWorkers     int    `json:"daemon_workers"`
	AVX2              bool   `json:"rng_avx2"`
	BuildTags         string `json:"build_tags"`
	GoVersion         string `json:"go_version"`
	CPUModel          string `json:"cpu_model"`
	CheckpointFS      string `json:"checkpoint_fs"`
	CheckpointFSNotes string `json:"checkpoint_fs_note"`
}

func hostIdentity(ckptDir string, cpu int) host {
	h := host{
		NumCPU: runtime.NumCPU(), PinnedCPU: cpu, LoadGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: 1, DaemonWorkers: 1,
		AVX2: rng.HasAVX2(), BuildTags: buildTags(), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), CheckpointFS: "none",
		CheckpointFSNotes: "no checkpoint directory: the workload writes no checkpoints",
	}
	if ckptDir == "" {
		return h
	}
	h.CheckpointFS = fsType(ckptDir)
	if h.CheckpointFS == "tmpfs" {
		h.CheckpointFSNotes = "checkpoint timings exclude device latency"
	} else {
		h.CheckpointFSNotes = "checkpoint timings include device fsync latency"
	}
	return h
}

// buildTags returns the -tags setting this binary was built with; run.sh
// builds isingd with the same go build invocation.
func buildTags() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "-tags" {
				return kv.Value
			}
		}
	}
	return ""
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "other"
}
