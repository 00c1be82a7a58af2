// Command hgeddbench is the end-to-end and per-layer benchmark of the hgedd
// query service. It drives server.New(...).Handler() in-process through
// net/http/httptest with a closed loop (one request in flight), checks every
// reply against the hged facade run on its own copy of the state, and prints
// one JSON result line last.
//
//	hgeddbench --workload serve-explain --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced replay (see README.md).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hged/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hgeddbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("hgeddbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&cfg.stateDir, "state", "", "directory for the determinism record (empty disables the cross-run check)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds %v must be > 0", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	w := workloads[cfg.workload]
	hostStart := readHostCPU()

	var (
		res      result
		counters []counters
		report   []string
	)
	if cfg.trace {
		res, counters, report, err = tracedRun(w, cfg)
	} else {
		res, counters, report, err = endToEndRun(w, cfg)
	}
	if err != nil {
		return err
	}
	steal := hostStart.stealShareUntil(readHostCPU())
	if cfg.trace {
		res.Metrics["host.steal_share"] = metric{steal, "ratio"}
	}

	detErr := checkDeterminism(cfg, counters)
	if detErr != nil {
		res.Correct = false
	}

	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %v  GOMAXPROCS %d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "host.steal_share %.4f\n", steal)
	fmt.Fprintf(stdout, "work counters over the first %d operations: %s\n", counters[0].Ops, counters[0])
	fmt.Fprintf(stdout, "attempted %d  failed %d\n", res.Attempted, res.Failed)
	if detErr != nil {
		fmt.Fprintln(stdout, "determinism check FAILED:", detErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("run is not correct (see the report above)")
	}
	return nil
}

// setupWarmups untimed set-ups come first, so the process has mapped the
// memory a set-up allocates before one is timed.
const setupWarmups = 2

// timedSetups builds the workload's server state w.setupRuns times from a
// collected heap and returns the median set-up time with the last server;
// the others are closed. One set-up alone does not repeat: it is bound by
// the garbage collector.
func timedSetups(w *workload, in *inputs) (float64, *server.Server, error) {
	var (
		times []float64
		srv   *server.Server
	)
	for i := -setupWarmups; i < w.setupRuns; i++ {
		if srv != nil {
			closeServer(srv)
			srv = nil
		}
		runtime.GC()
		start := time.Now()
		s, err := setupServer(in)
		if err != nil {
			return 0, nil, err
		}
		if i >= 0 {
			times = append(times, time.Since(start).Seconds())
		}
		srv = s
	}
	return median(times), srv, nil
}

func closeServer(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Close(ctx) // every job the benchmark submits has finished; nothing to drain
}

// checkDeterminism compares the work counters of every pass of this run and
// of every earlier run of the same binary, workload and seed recorded under
// cfg.stateDir. Allocation figures are not part of the record.
func checkDeterminism(cfg config, runs []counters) error {
	for i := 1; i < len(runs); i++ {
		if runs[i] != runs[0] {
			return fmt.Errorf("two passes of one run disagree:\n  %s\n  %s", runs[0], runs[i])
		}
	}
	if cfg.stateDir == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Errorf("hash own binary: %w", err)
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(cfg.stateDir, "counters")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", hex.EncodeToString(sum[:8]), cfg.workload, cfg.seed))
	if prev, err := os.ReadFile(path); err == nil {
		var rec counters
		if err := json.Unmarshal(prev, &rec); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if rec != runs[0] {
			return fmt.Errorf("this run disagrees with an earlier run of the same binary and seed:\n  earlier %s\n  now     %s", rec, runs[0])
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record counters: %w", err)
	}
	out, err := json.Marshal(runs[0])
	if err != nil {
		return fmt.Errorf("record counters: %w", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("record counters: %w", err)
	}
	return nil
}
