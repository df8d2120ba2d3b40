// Command embench regenerates the paper's experimental tables and
// figures (Sections 7.2-7.6) on the synthetic datasets.
//
// Usage:
//
//	embench -exp all -scale 0.02
//	embench -exp fig3a -dataset products -scale 0.05 -draws 3
//	embench -exp fig6 -trials 100
//
// Experiments: table2, table3, fig3a, fig3b, fig3c, fig4, fig5a,
// fig5b, fig5c, fig6, replay, memory, ablations, kernels, durability,
// stream, serve, ingest, replicate, failover, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rulematch/internal/bench"
	"rulematch/internal/cliflags"
	"rulematch/internal/datagen"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (table2|table3|fig3a|fig3b|fig3c|fig4|fig5a|fig5b|fig5c|fig6|replay|memory|ablations|kernels|serve|ingest|replicate|failover|all)")
		dataset = flag.String("dataset", "products", "dataset domain for the figure experiments")
		scale   = flag.Float64("scale", 0.02, "dataset scale factor (1 = paper-size tables)")
		rules   = flag.Int("rules", 0, "rule-pool size (0 = Table 2 target for the dataset)")
		draws   = flag.Int("draws", 3, "random rule-set draws per Figure 3 data point")
		trials  = flag.Int("trials", 100, "random changes per Figure 6 change type")
		maxK    = flag.Int("maxk", 0, "max rules for the Figure 5C growth (0 = all)")
		jsonOut = flag.String("json", "", "write kernel benchmark results as JSON to this path (kernels experiment)")
	)
	eng := cliflags.NewEngine()
	eng.Register(flag.CommandLine)
	flag.Parse()
	if err := run(*exp, *dataset, *scale, *rules, *draws, *trials, *maxK, eng.Parallel, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "embench:", err)
		os.Exit(1)
	}
}

func domainByName(name string) (*datagen.Domain, error) {
	for _, d := range datagen.AllDomains() {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("unknown dataset %q (have products, restaurants, books, breakfast, movies, videogames)", name)
}

// ruleCounts builds the Figure 3 x-axis for a pool of n rules.
func ruleCounts(n int) []int {
	candidates := []int{5, 10, 20, 40, 80, 120, 160, 200, 240}
	var out []int
	for _, c := range candidates {
		if c <= n {
			out = append(out, c)
		}
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// knownExperiments lists the accepted -exp values.
var knownExperiments = map[string]bool{
	"all": true, "table2": true, "table3": true,
	"fig3a": true, "fig3b": true, "fig3c": true, "fig4": true,
	"fig5a": true, "fig5b": true, "fig5c": true,
	"fig6": true, "memory": true, "ablations": true, "replay": true,
	"kernels": true, "durability": true, "stream": true, "serve": true,
	"ingest": true, "replicate": true, "failover": true,
}

func run(exp, dataset string, scale float64, rules, draws, trials, maxK, parallel int, jsonOut string) error {
	exp = strings.ToLower(exp)
	if !knownExperiments[exp] {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	out := os.Stdout

	if exp == "kernels" || exp == "all" {
		tbl, results := bench.AblationKernels()
		tbl.Print(out)
		if jsonOut != "" {
			data, err := bench.KernelResultsJSON(results)
			if err != nil {
				return err
			}
			if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "kernel results written to %s\n\n", jsonOut)
		}
		if exp == "kernels" {
			return nil
		}
	}

	// The ingest experiment works on raw CSV blobs of the dataset; it
	// needs no prepared task either.
	if exp == "ingest" || exp == "all" {
		dom, err := domainByName(dataset)
		if err != nil {
			return err
		}
		tbl, res, err := bench.Ingest(dom, scale)
		if err != nil {
			return err
		}
		tbl.Print(out)
		if exp == "ingest" {
			if jsonOut != "" {
				data, err := bench.IngestResultJSON(res)
				if err != nil {
					return err
				}
				if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "ingest results written to %s\n\n", jsonOut)
			}
			return nil
		}
	}

	// The serve experiment builds its own synthetic sessions behind a
	// live HTTP listener; no task preparation needed.
	if exp == "serve" || exp == "all" {
		tbl, err := bench.Serve(bench.ServeConfig{})
		if err != nil {
			return err
		}
		tbl.Print(out)
		if exp == "serve" {
			return nil
		}
	}

	// The replication experiment spins up its own primary and followers
	// behind live listeners; no task preparation needed.
	if exp == "replicate" || exp == "all" {
		tbl, err := bench.Replicate(bench.ReplicateConfig{})
		if err != nil {
			return err
		}
		tbl.Print(out)
		if exp == "replicate" {
			return nil
		}
	}

	// The failover experiment crash-kills its own primary and promotes
	// the follower; it also needs no task preparation.
	if exp == "failover" || exp == "all" {
		tbl, err := bench.Failover(bench.FailoverConfig{})
		if err != nil {
			return err
		}
		tbl.Print(out)
		if exp == "failover" {
			return nil
		}
	}

	if exp == "table2" || exp == "all" {
		tbl, err := bench.Table2(scale)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "table3" || exp == "all" {
		tbl, err := bench.Table3(scale)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}

	needTask := exp == "all"
	for _, e := range []string{"fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "memory", "ablations", "replay", "durability", "stream"} {
		if exp == e {
			needTask = true
		}
	}
	if !needTask {
		return nil
	}
	dom, err := domainByName(dataset)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "preparing task: %s at scale %g ...\n", dataset, scale)
	task, err := bench.PrepareTask(dom, scale, rules)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "task ready: %d candidate pairs, %d rules, %d gold matches\n\n",
		len(task.Pairs()), len(task.Rules), len(task.DS.Gold))
	counts := ruleCounts(len(task.Rules))

	if exp == "fig3a" || exp == "fig3b" || exp == "all" {
		tbl, results, err := bench.Fig3A(task, bench.Fig3AConfig{
			RuleCounts:     counts,
			Draws:          draws,
			MaxRudimentary: 40,
			MaxEarlyExit:   120,
		})
		if err != nil {
			return err
		}
		if exp != "fig3b" {
			tbl.Print(out)
		}
		if exp == "fig3b" || exp == "all" {
			bench.Fig3B(task, results).Print(out)
		}
	}
	if exp == "fig4" || exp == "all" {
		fmt.Fprintf(out, "== Figure 4: sample rules mined from the random forest, %s ==\n", dataset)
		n := 2
		if n > len(task.Rules) {
			n = len(task.Rules)
		}
		for _, r := range task.Rules[:n] {
			fmt.Fprintln(out, "rule "+r.String())
		}
		fmt.Fprintln(out)
	}
	if exp == "fig3c" || exp == "all" {
		tbl, _, err := bench.Fig3C(task, counts, draws)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "fig5a" || exp == "all" {
		tbl, _, err := bench.Fig5A(task, counts)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "fig5b" || exp == "all" {
		tbl, _, err := bench.Fig5B(task, nil)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "fig5c" || exp == "all" {
		tbl, _, err := bench.Fig5C(task, maxK, parallel)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "fig6" || exp == "all" {
		tbl, _, err := bench.Fig6(task, trials, 42)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "replay" || exp == "all" {
		tbl, _, err := bench.Replay(task, len(task.Rules)/2, 2*trials/5, 42)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "memory" || exp == "all" {
		tbl, err := bench.MemoryReport(task)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "durability" || exp == "all" {
		tbl, err := bench.AblationDurability(task)
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "stream" || exp == "all" {
		tbl, err := bench.Stream(task, bench.StreamConfig{})
		if err != nil {
			return err
		}
		tbl.Print(out)
	}
	if exp == "ablations" || exp == "all" {
		for _, fn := range []func() (*bench.Table, error){
			func() (*bench.Table, error) { return bench.AblationCheckCacheFirst(task) },
			func() (*bench.Table, error) { return bench.AblationSampleSize(task, nil) },
			func() (*bench.Table, error) { return bench.AblationPredicateOrder(task) },
			func() (*bench.Table, error) { return bench.AblationAlphaVariants(task, counts) },
			func() (*bench.Table, error) { return bench.AblationValueCache(task) },
			func() (*bench.Table, error) { return bench.AblationParallel(task) },
			func() (*bench.Table, error) { return bench.AblationBatch(task) },
			func() (*bench.Table, error) { return bench.AblationAdaptive(task) },
			func() (*bench.Table, error) { return bench.AblationProfileCache(task) },
		} {
			tbl, err := fn()
			if err != nil {
				return err
			}
			tbl.Print(out)
		}
	}
	return nil
}
