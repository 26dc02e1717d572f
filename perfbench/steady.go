package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs one workload N times untraced, each with its own seed, in
// fresh processes of this binary, and prints each metric's median, quartiles and
// spread (interquartile distance over median) against its bound from
// BENCHMARK.json, with the share of failed operations per run.
func runSteady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "number of runs")
	seconds := fs.Int("seconds", 0, "seconds per run (default: run_seconds from BENCHMARK.json)")
	firstSeed := fs.Int64("first-seed", 1, "seed of the first run; later runs count up")
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	raw, err := os.ReadFile(*bench)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *bench, err)
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	var failedShare []float64
	for i := 0; i < *runs; i++ {
		seed := *firstSeed + int64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		st0 := readCPUStat()
		out, err := cmd.Output()
		steal := st0.stealShare(readCPUStat())
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: output checks failed", seed)
		}
		failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
		line := fmt.Sprintf("run %2d seed %d steal %.1f%%:", i+1, seed, 100*steal)
		for _, k := range sortedKeys(res.Metrics) {
			values[k] = append(values[k], res.Metrics[k].Value)
			line += fmt.Sprintf(" %s=%.6g", k, res.Metrics[k].Value)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-32s %12s %12s %12s %8s %8s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound")
	for _, k := range sortedKeys(values) {
		q := pyQuantiles(values[k])
		spread := (q[2] - q[0]) / q[1]
		b, ok := bounds[k]
		tail := "-"
		if ok {
			tail = fmt.Sprintf("%.2f", spread/b)
		}
		fmt.Printf("%-32s %12.6g %12.6g %12.6g %8.4f %8.3g %s\n", k, q[0], q[1], q[2], spread, b, tail)
	}
	fmt.Printf("failed share per run: %v\n", failedShare)
	return nil
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
// The steal column is the time the hypervisor ran something else while a
// vCPU of this guest was ready: wall-clock figures grow with it, CPU
// figures far less. Zero where /proc/stat cannot be read.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var st cpuStat
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

func (a cpuStat) stealShare(b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pyQuantiles returns the quartiles the way Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method).
func pyQuantiles(data []float64) [3]float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	var out [3]float64
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			out = [3]float64{d[0], d[0], d[0]}
		}
		return out
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
