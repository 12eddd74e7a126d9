// Command perfbench is the repository benchmark. It boots the simulated
// machine through the public kernel, driver and device APIs, drives one of
// four named workloads from its own seeded generator, checks every output,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as the last line of standard output, one JSON object.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload blk-randread --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the root names the workloads and the metrics printed;
// perfbench/README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricSpec struct {
	Name, Unit string
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// minReps is the fewest repetitions a run makes, so its host-clock medians
// rest on at least three measurements even when one repetition outlasts
// --seconds.
const minReps = 3

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "host seconds to spend repeating the measurement")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, adding a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds time.Duration, layers bool) error {
	// The simulator is single-threaded. With the garbage collector on the
	// same processor, host time does not depend on whether a second one
	// happens to be free.
	runtime.GOMAXPROCS(1)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := sp.EndToEnd
	if layers {
		names = sp.PerLayer
	}
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := measure(w, seed, seconds, layers, names)
		if err != nil {
			return err
		}
		return emit(res)
	}
	// Every workload in turn; metrics are prefixed with the workload name.
	all := result{Correct: true, Metrics: map[string]value{}}
	for i := range workloads {
		w := &workloads[i]
		res, err := measure(w, seed, seconds, layers, names)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", w.name)
		for _, n := range names {
			fmt.Printf("  %-40s %14.6g %s\n", n.Name, res.Metrics[n.Name].Value, n.Unit)
			all.Metrics[w.name+"/"+n.Name] = res.Metrics[n.Name]
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
	}
	return emit(all)
}

// emit prints the result line; a run whose outputs failed a check exits
// non-zero after printing it.
func emit(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// measure repeats the workload for about `seconds` of host time (at least
// minReps times), then once more traced when per-layer metrics are asked
// for, and reduces the repetitions to the named metrics.
func measure(w *workload, seed uint64, seconds time.Duration, layers bool, names []metricSpec) (result, error) {
	each := plain
	if layers {
		each = profiled
	}
	ref := newReference()
	var reps []*rep
	start := time.Now()
	for {
		t0 := time.Now()
		r, err := runRep(w, seed, each, ref)
		if err != nil {
			return result{}, err
		}
		if len(reps) > 0 {
			r.slim()
		}
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "%s seed %d rep %d: setup %.3fs, span %.3fs, reference %.4fs, digest %s\n",
			w.name, seed, len(reps), r.setup.Seconds(), r.wall.Seconds(), r.ref.Seconds(), r.digest)
		if len(reps) >= minReps && time.Since(start)+time.Since(t0) > seconds {
			break
		}
	}
	res := result{Correct: true, Attempted: reps[0].t.attempted, Failed: reps[0].t.failed}
	problems := reps[0].checks
	for _, r := range reps[1:] {
		if r.digest != reps[0].digest {
			problems = append(problems, "repetitions of one seed disagree on the virtual-clock digest")
			break
		}
	}
	m := endToEnd(reps)
	if layers {
		tr, err := runRep(w, seed, traced, ref)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "%s seed %d traced: setup %.3fs, span %.3fs, digest %s\n",
			w.name, seed, tr.setup.Seconds(), tr.wall.Seconds(), tr.digest)
		if tr.digest != reps[0].digest {
			problems = append(problems, "span recording changed the virtual-clock results")
		}
		m = perLayer(reps, tr)
	}
	report(w, seed, reps[0], m)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "%s: CHECK FAILED: %s\n", w.name, p)
		res.Correct = false
	}
	fmt.Printf("digest %s seed %d %s\n", w.name, seed, reps[0].digest)

	res.Metrics = map[string]value{}
	for _, n := range names {
		v, ok := m[n.Name]
		if !ok {
			return result{}, fmt.Errorf("BENCHMARK.json names metric %q, which the benchmark does not compute", n.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not a number", n.Name)
		}
		res.Metrics[n.Name] = value{Value: v, Unit: n.Unit}
	}
	return res, nil
}

// report prints every computed metric to standard error, and for block
// workloads puts the benchmark's first-attempt p99 beside the block core's
// own accepted-submit histogram, so coordinated omission stays visible.
func report(w *workload, seed uint64, r *rep, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%s seed %d: %-44s %.6g\n", w.name, seed, k, m[k])
	}
	if len(r.t.admit) > 0 {
		fmt.Fprintf(os.Stderr, "%s seed %d: p99 from first attempt %.1f µs; block core histogram (from dispatch) %.1f µs\n",
			w.name, seed, quantileUS(r.t.lat, 0.99), r.h.blk.PercentileUS(0.99))
	}
}
