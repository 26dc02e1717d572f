// Command perfbench is the serving benchmark of the RichNote service. It
// boots internal/server in-process (a standalone server, or a router with
// two nodes over loopback internal/transport), drives it over loopback HTTP
// with a closed, batch-then-tick loop, checks the service's outputs against
// the generator's own records, and prints every metric by name.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload hot_topics --seed 1 --seconds 20 --trace 0
//	perfbench selftest
//	perfbench steady --workload hot_topics --runs 10 --seconds 20
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, from a run
// that also records spans (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "selftest":
			if err := selfTest(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
				os.Exit(1)
			}
			return
		case "steady":
			if err := runSteady(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: steady:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured load phase in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	spec, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(spec, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx := map[string]any{
		"workload":   spec.name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traced,
		"attempted":  res.Attempted,
		"failed":     res.Failed,
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		// The host's steal share of all CPU time during the load phase,
		// from /proc/stat (0 where it cannot be read).
		"host_steal_pct": res.stealPct,
	}
	ctxLine, _ := json.Marshal(ctx) // plain map of scalars: cannot fail
	fmt.Println("context " + string(ctxLine))
	if !res.Correct {
		for _, msg := range res.problems {
			fmt.Println("check failed: " + msg)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	stealPct float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check; the run still prints its metrics.
func (r *result) fail(err error) {
	if err != nil {
		r.Correct = false
		r.problems = append(r.problems, err.Error())
	}
}

// commit is the VCS revision stamped into the binary by the Go toolchain,
// or "unknown" when it was built outside a git checkout.
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

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
