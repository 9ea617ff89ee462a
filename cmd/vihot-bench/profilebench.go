package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vihot/internal/cabin"
	"vihot/internal/driver"
	"vihot/internal/experiment"
	"vihot/internal/profilestore"
)

// profileBaseline is the JSON schema of -profilejson: the three
// profile-store paths that matter at fleet scale. cold_load is the
// full miss (disk read + decode + checksum + validate + fingerprint +
// insert); hot_hit is the steady-state lookup, which must stay
// allocation-free; contention_64 is 64 goroutines hammering a
// cached working set through the sharded locks.
type profileBaseline struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Seed       int64              `json:"seed"`
	Positions  int                `json:"profile_positions"`
	Bytes      int64              `json:"profile_bytes"`
	Results    []profileBenchCell `json:"results"`
}

type profileBenchCell struct {
	Case        string  `json:"case"` // cold_load | hot_hit | contention_64
	Ops         int     `json:"ops"`
	Goroutines  int     `json:"goroutines"`
	Seconds     float64 `json:"seconds"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerS     float64 `json:"ops_per_s"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// runProfileBench measures the store's cold, hot, and contended
// paths and writes the JSON baseline.
func runProfileBench(path string, seed int64) error {
	start := time.Now()
	env, err := experiment.NewEnv(cabin.DefaultConfig(), seed)
	if err != nil {
		return err
	}
	popt := experiment.DefaultProfileOptions()
	popt.Positions = 5
	popt.PerPositionS = 4
	profile, _, err := env.CollectProfile(driver.DriverA(), popt)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "vihot-profilebench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dl := profilestore.NewDirLoader(dir)
	const files = 256
	for i := 0; i < files; i++ {
		if err := dl.Save(fmt.Sprintf("driver-%d", i), profile); err != nil {
			return err
		}
	}

	base := profileBaseline{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Positions:  len(profile.Positions),
	}

	// Cold loads: capacity 1 with a rotating key keeps every Get a
	// miss that goes to disk.
	{
		s := profilestore.New(profilestore.Config{Shards: 1, Capacity: 1, Loader: dl})
		const ops = 2000
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := s.Get(fmt.Sprintf("driver-%d", i%files)); err != nil {
				return err
			}
		}
		base.Results = append(base.Results, cell("cold_load", ops, 1, time.Since(t0), 0))
		base.Bytes = s.Stats().Bytes
	}

	// Hot hits: one warmed key, measured with allocation accounting.
	{
		s := profilestore.New(profilestore.Config{Loader: dl})
		if _, err := s.Get("driver-0"); err != nil {
			return err
		}
		const ops = 2_000_000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := s.Get("driver-0"); err != nil {
				return err
			}
		}
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / ops
		base.Results = append(base.Results, cell("hot_hit", ops, 1, dt, allocs))
	}

	// 64-way contention: a cached 16-key working set under 64
	// goroutines — the sharded-lock scaling story.
	{
		s := profilestore.New(profilestore.Config{Shards: 8, Capacity: 64, Loader: dl})
		keys := make([]string, 16)
		for i := range keys {
			keys[i] = fmt.Sprintf("driver-%d", i)
			if _, err := s.Get(keys[i]); err != nil {
				return err
			}
		}
		const (
			workers   = 64
			perWorker = 50_000
		)
		var (
			wg    sync.WaitGroup
			gate  = make(chan struct{})
			fails atomic.Int64
		)
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func(g int) {
				defer wg.Done()
				<-gate
				for i := 0; i < perWorker; i++ {
					if _, err := s.Get(keys[(g+i)%len(keys)]); err != nil {
						fails.Add(1)
						return
					}
				}
			}(g)
		}
		t0 := time.Now()
		close(gate)
		wg.Wait()
		dt := time.Since(t0)
		if n := fails.Load(); n > 0 {
			return fmt.Errorf("contention bench: %d gets failed", n)
		}
		base.Results = append(base.Results, cell("contention_64", workers*perWorker, workers, dt, 0))
	}

	for _, c := range base.Results {
		fmt.Printf("%-14s %10d ops  %8.0f ns/op  %12.0f ops/s  %.3f allocs/op\n",
			c.Case, c.Ops, c.NsPerOp, c.OpsPerS, c.AllocsPerOp)
	}
	blob, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s in %.0f s\n", path, time.Since(start).Seconds())
	return nil
}

func cell(name string, ops, goroutines int, dt time.Duration, allocs float64) profileBenchCell {
	return profileBenchCell{
		Case:        name,
		Ops:         ops,
		Goroutines:  goroutines,
		Seconds:     dt.Seconds(),
		NsPerOp:     float64(dt.Nanoseconds()) / float64(ops),
		OpsPerS:     float64(ops) / dt.Seconds(),
		AllocsPerOp: allocs,
	}
}
