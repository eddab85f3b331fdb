package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the provenance block of every result: a number measured on
// another machine or another tree says so.
func hostInfo(b *bench) map[string]any {
	model, n := cpuInfo()
	return map[string]any{
		"cpu_model":      model,
		"nproc":          n,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpus_allowed":   cpusAllowed(),
		"go_version":     runtime.Version(),
		"git_sha":        gitSHA(b.root),
		"seed":           b.seed,
		"workload":       b.workload,
		"workers":        cpus,
		"size":           b.size.name,
		"loadavg_before": loadavg(),
	}
}

// cpuInfo returns the CPU model and the machine's number of CPUs, which
// runtime.NumCPU would not give once run.sh has pinned the process.
func cpuInfo() (model string, n int) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, runtime.NumCPU()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		switch k = strings.TrimSpace(k); {
		case !ok:
		case k == "processor":
			n++
		case k == "model name" && model == "unknown":
			model = strings.TrimSpace(v)
		}
	}
	return model, n
}

// cpusAllowed lists the CPUs this process may run on, as
// /proc/self/status gives them: one when run.sh pinned it.
func cpusAllowed() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks are the aggregate CPU time counters of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal ...
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor took from this
// machine's virtual CPUs between two readings: time the benchmark could
// not run although it wanted to.
func stealPct(before, after cpuTicks) float64 {
	if after.total <= before.total {
		return 0
	}
	return 100 * float64(after.steal-before.steal) / float64(after.total-before.total)
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// gitSHA returns the checkout's commit, or "unknown" outside a git
// checkout. The search for a repository stops at the checkout root.
func gitSHA(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
