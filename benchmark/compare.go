package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the tools need.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (*spec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// collected is one line of a result set: one untraced run.
type collected struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// collectMain runs every workload `runs` times, each run a fresh process
// with its own seed as the driver does, and writes one line per run.
func collectMain(out string, runs int, firstSeed int64) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, w := range sp.Workloads {
		for i := 0; i < runs; i++ {
			seed := firstSeed + int64(i)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			line := collected{Workload: w.Name, Seed: seed}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line.Result); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: last line is not a result: %v\n", w.Name, seed, err)
				return 1
			}
			if err := enc.Encode(line); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.Name, seed)
		}
	}
	return 0
}

// readSet loads a result set into workload → metric → values.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var line collected
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !line.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d was not correct", path, line.Workload, line.Seed)
		}
		if set[line.Workload] == nil {
			set[line.Workload] = make(map[string][]float64)
		}
		for name, m := range line.Result.Metrics {
			set[line.Workload][name] = append(set[line.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the cut points of Python's statistics.quantiles(v, n=4)
// (the exclusive method), which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}

// compareMain checks result set b against result set a with the bounds of
// BENCHMARK.json: one row per (workload, end-to-end metric). A pair whose
// run-to-run spread exceeds its bound is unresolved, not unchanged.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-16s %-26s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse%", "a iqr%", "b iqr%", "bound%", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-26s missing from a result set\n", w.Name, m.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				// Set-up time is gated on its medians only.
				verdict = "UNRESOLVED"
				bad++
			case worse > m.Bound:
				verdict = "WORSE"
				bad++
			}
			fmt.Printf("%-16s %-26s %14.5g %14.5g %+8.1f %8.1f %8.1f %6.0f  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d pairs worse or unresolved\n", bad)
		return 1
	}
	fmt.Println("every pair agrees within its bound")
	return 0
}
