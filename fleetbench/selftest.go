package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// selfTestSeconds is long enough for fleet-churn to open and close
// sessions mid-run.
const selfTestSeconds = 8

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// runSelfTest runs every workload of BENCHMARK.json for a few
// stream-seconds, untraced and traced, and requires every run to pass
// its checks, lose nothing, and print exactly the metrics BENCHMARK.json
// names with their units. It then injects faults and requires the
// checks to catch them: a queue too short to keep up must lose items,
// and a tampered estimate must fail the run, untraced and traced.
func runSelfTest() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: selfTestSeconds, trace: traced}
			res, rec, err := run(o)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.Name, traced, err)
			}
			printResult(rec, res)
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s trace=%v: correct=%v failed=%d: %s", w.Name, traced, res.Correct, res.Failed,
					strings.Join(rec.CheckErrors, "; "))
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					return fmt.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}

	res, _, err := run(options{workload: "drive", seed: 7, seconds: selfTestSeconds, queueLen: 1})
	if err != nil {
		return err
	}
	if res.Failed == 0 {
		return fmt.Errorf("a one-item shard queue lost nothing: lost_ratio did not rise")
	}
	fmt.Fprintf(os.Stderr, "selftest: one-item queues lost %d of %d items\n", res.Failed, res.Attempted)

	for _, traced := range []bool{false, true} {
		res, rec, err := run(options{workload: "drive", seed: 7, seconds: selfTestSeconds, trace: traced, tamper: true})
		if err != nil {
			return err
		}
		if res.Correct {
			return fmt.Errorf("trace=%v: a tampered estimate passed the checks", traced)
		}
		fmt.Fprintf(os.Stderr, "selftest: tampered estimate caught (trace=%v): %s\n", traced, strings.Join(rec.CheckErrors, "; "))
	}
	return nil
}
