package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyCheck is the steadiness self-check: it runs each workload n
// times untraced (seeds 1..n, one process each) and once traced, and
// prints, per metric, the median, quartiles, min and max. An
// end-to-end metric whose inter-quartile spread exceeds a tenth of its
// median is flagged. The traced run's end-to-end values, set against
// the untraced medians, give the tracing overhead.
func steadyCheck(name string, n, seconds int, workdir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ws := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []*workload{w}
	}
	for _, w := range ws {
		vals := map[string][]float64{}
		layerVals := map[string][]float64{}
		attempted, failed, incorrect := 0, 0, 0
		for seed := 1; seed <= n; seed++ {
			res, layer, err := runChild(exe, w.name, seed, seconds, 0, workdir)
			if err != nil {
				return err
			}
			attempted += res.Attempted
			failed += res.Failed
			if !res.Correct {
				incorrect++
			}
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			for k, v := range layer {
				layerVals[k] = append(layerVals[k], v)
			}
		}
		traced, _, err := runChild(exe, w.name, defaultSeed, seconds, 1, workdir)
		if err != nil {
			return err
		}
		fmt.Printf("\n### %s: %d runs × %d s, %d operations, %d failed, %d runs incorrect\n\n", w.name, n, seconds, attempted, failed, incorrect)
		fmt.Println("| metric | median | q1 | q3 | min | max | spread | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, d := range e2eMetrics {
			printSpread(d.name, vals[d.name], fmt.Sprint(d.bound))
		}
		// Per-layer metrics every untraced run reports: their spread,
		// ungated.
		for _, d := range layerMetrics {
			printSpread(d.name, layerVals[d.name], "—")
		}
		fmt.Printf("\nTracing overhead (traced run, seed %d, against the untraced median):\n\n", defaultSeed)
		overhead := func(name string, traced float64, untraced []float64) {
			m := median(untraced)
			fmt.Printf("- %s: traced %s vs %s (%+.1f%%)\n", name, g(traced), g(m), 100*(traced/m-1))
		}
		overhead("rows_per_s", traced.Metrics["traced.rows_per_s"].Value, vals["rows_per_s"])
		overhead("workload.latency_p50_ms", traced.Metrics["workload.latency_p50_ms"].Value, layerVals["workload.latency_p50_ms"])
		fmt.Println("\nEvery run's end-to-end values, by seed:")
		fmt.Println()
		for _, d := range e2eMetrics {
			fmt.Printf("- %s:", d.name)
			for _, v := range vals[d.name] {
				fmt.Printf(" %s", g(v))
			}
			fmt.Println()
		}
		fmt.Println("\nPer-layer metrics (traced run):")
		fmt.Println()
		for _, d := range layerMetrics {
			fmt.Printf("- %s: %s %s\n", d.name, g(traced.Metrics[d.name].Value), d.unit)
		}
	}
	return nil
}

// printSpread prints one table row: median, quartiles, min, max and the
// inter-quartile spread, flagged when it exceeds a tenth of the median.
func printSpread(name string, xs []float64, bound string) {
	if len(xs) < 2 {
		return
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q1, q2, q3 := quartiles(xs)
	sp := spread(xs)
	flag := ""
	if sp > 0.1 {
		flag = "spread > 0.1"
	}
	fmt.Printf("| %s | %s | %s | %s | %s | %s | %.4f | %s | %s |\n", name, g(q2), g(q1), g(q3), g(sorted[0]), g(sorted[len(sorted)-1]), sp, bound, flag)
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// runChild runs one workload invocation of this binary and parses the
// result from the last line of its output, and the per-layer values the
// run reported on the line before it.
func runChild(exe, name string, seed, seconds, trace int, workdir string) (result, map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--workdir", workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return result{}, nil, fmt.Errorf("%s seed %d: %d output lines, want the info and result lines", name, seed, len(lines))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	var info struct {
		Layer map[string]float64 `json:"layer"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return result{}, nil, fmt.Errorf("%s seed %d: info line: %w", name, seed, err)
	}
	return res, info.Layer, nil
}
