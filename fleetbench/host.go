package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// calibration times a fixed floating-point loop, so an outlier run
// can be traced back to a slow moment of the host.
type calibration struct {
	WallMs float64 `json:"wall_ms"`
	CPUMs  float64 `json:"cpu_ms"`
}

var calibSink float64

func calibrate() calibration {
	w0, c0 := time.Now(), cpuNow()
	x := 1.0
	for i := 0; i < 20_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	calibSink += x
	return calibration{
		WallMs: float64(time.Since(w0).Nanoseconds()) / 1e6,
		CPUMs:  float64(cpuNow()-c0) / 1e6,
	}
}

// hostRecord identifies where and on what a run happened. It is not a
// metric.
type hostRecord struct {
	NProc       int         `json:"nproc"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	GoVersion   string      `json:"go_version"`
	Commit      string      `json:"commit"`
	Source      string      `json:"source_sha256"`
	CalibBefore calibration `json:"calibration_before"`
	CalibAfter  calibration `json:"calibration_after"`
	MaxRSSMB    float64     `json:"max_rss_mb"`
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func newHostRecord() hostRecord {
	commit := os.Getenv("FLEETBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Source:     sourceDigest("."),
	}
}

// sourceDigest hashes the program's Go sources and module file under
// root (the benchmark's own directory and build output excluded), so
// a run names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root || d.Name() == "fleetbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
