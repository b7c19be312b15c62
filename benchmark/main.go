// Command benchmark is the repository's benchmark: one command per
// workload that builds a cluster, generates its inputs from a seed, runs,
// verifies every output and prints every metric by name with its unit.
//
//	go run ./benchmark --workload ycsb_b_tcp --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload ycsb_b_tcp --seed 1 --seconds 10 --trace 1
//	go run ./benchmark -collect a.json -runs 10 --seed 1
//	go run ./benchmark -compare a.json b.json
//
// --trace 0 measures the end-to-end metrics; --trace 1 reruns the workload
// with benchmark-side spans and per-layer probes and prints the per-layer
// metrics instead. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured foreground seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	collect := flag.String("collect", "", "write a result set: every workload -runs times, seeds from --seed")
	runs := flag.Int("runs", 10, "runs per workload for -collect")
	flag.Parse()

	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if *collect != "" {
		os.Exit(collectMain(*collect, *runs, *seed))
	}
	sc, ok := scenarioByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; workloads:\n", *workload)
		for _, s := range scenarios {
			fmt.Fprintf(os.Stderr, "  %s\n", s.name)
		}
		os.Exit(2)
	}
	res, err := run(context.Background(), os.Stdout, sc, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sc.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes every round of the scenario and reduces them to a result.
func run(ctx context.Context, out io.Writer, sc scenario, seed int64, seconds float64, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var rounds []*roundResult
	res := &result{}
	failures := make(map[string]int64)
	for i := 0; i < sc.rounds; i++ {
		r, err := runRound(ctx, sc, seed*int64(sc.rounds)+int64(i), seconds/float64(sc.rounds), tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		fmt.Fprintf(out, "round %d: %.1f s (set-up %.2f s, recovery %.2f s of %.0f MB)\n",
			i, r.wallS, r.setupS, r.recoveryS, r.recoveredBytes/1e6)
		res.Attempted += r.attempted
		res.Failed += r.failed
		for k, n := range r.failures {
			failures[k] += n
		}
	}
	ms := endToEnd(rounds)
	if traced {
		ms = newMetricSet()
		if err := runProbes(ctx, sc, ms, tr); err != nil {
			return nil, err
		}
		perLayer(ms, tr.insitu, rounds, res.Attempted, res.Failed)
		path := filepath.Join("benchmark", "out", sc.name+".trace.jsonl")
		if err := writeSpans(path, tr.logs()...); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "workload %s seed %d: %d rounds, %d operations attempted, %d failed\n",
		sc.name, seed, sc.rounds, res.Attempted, res.Failed)
	for _, k := range sortedKinds(failures) {
		fmt.Fprintf(out, "  failed %-28s %d\n", k, failures[k])
	}
	ms.print(out)
	res.Metrics = ms.m
	return res, nil
}
