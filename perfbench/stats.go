package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantileMs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the processor time the whole process has used so far, user and
// system, over all its threads. Unlike the wall clock it does not grow while
// the process waits for a processor other programs on the host hold, which
// on a shared machine moves wall times by a quarter or more between runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-set count (VmHWM) from
// the current resident set, so that each pass reports its own peak. Where
// the kernel does not allow it, peakRSSMB keeps reporting the process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set (VmHWM) since the last resetPeakRSS, or
// the memory the Go runtime obtained from the OS where /proc is not
// available.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from ("unknown" when the
// sources were not a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// signature is the part of a pass's output that must not change between
// passes or runs at one seed: the answers and the search effort that
// produced them.
type signature struct {
	II           map[string]int `json:"ii"` // per answer: the II, 0 when unmapped
	PerfMean     float64        `json:"perf_mean"`
	MappedFrac   float64        `json:"mapped_frac"`
	Proven       int            `json:"proven"`
	CoreAttempts int            `json:"core_attempts"`
	SatConflicts int64          `json:"sat_conflicts"`
	DRESCIISum   int            `json:"dresc_ii_sum"`
}

// diff describes how b differs from s ("" when equal).
func (s signature) diff(b signature) string {
	var out []string
	for k, v := range s.II {
		if b.II[k] != v {
			out = append(out, fmt.Sprintf("%s II %d vs %d", k, v, b.II[k]))
		}
	}
	for k, v := range b.II {
		if _, ok := s.II[k]; !ok {
			out = append(out, fmt.Sprintf("%s II absent vs %d", k, v))
		}
	}
	sort.Strings(out)
	cmp := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	cmp("perf_mean", s.PerfMean, b.PerfMean)
	cmp("mapped_frac", s.MappedFrac, b.MappedFrac)
	cmp("proven", s.Proven, b.Proven)
	cmp("core.attempts", s.CoreAttempts, b.CoreAttempts)
	cmp("sat.conflicts", s.SatConflicts, b.SatConflicts)
	cmp("dresc.ii_sum", s.DRESCIISum, b.DRESCIISum)
	return strings.Join(out, "; ")
}

// checkAcrossRuns compares sig with the record an earlier run of this same
// binary left for this workload and seed, or leaves the record. Records are
// keyed by the executable's hash, so a rebuilt program starts afresh.
func checkAcrossRuns(o options, sig signature) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(o.stateDir, hex.EncodeToString(h.Sum(nil))[:16])
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-smoke%t.json", o.workload, o.seed, o.smoke))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		var was signature
		if err := json.Unmarshal(prev, &was); err != nil {
			return "", fmt.Errorf("read %s: %w", path, err)
		}
		return was.diff(sig), nil
	case !errors.Is(err, fs.ErrNotExist):
		return "", err
	}
	blob, err := json.Marshal(sig)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return "", err
	}
	return "", os.Rename(tmp, path)
}
