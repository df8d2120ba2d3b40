// Command emdebug is an interactive debugger for rule-based entity
// matching — the analyst loop of the paper's Figure 1. It keeps
// matching state (feature memo, rule/predicate bitmaps) alive across
// rule edits so every re-run is incremental and interactive.
//
// Usage:
//
//	emdebug                         # then: load products 0.02
//	emdebug -dataset products -scale 0.02
//	echo 'quality' | emdebug -dataset books
//
// Type "help" at the prompt for the command list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"rulematch/internal/cliflags"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "dataset to load on startup")
		scale   = flag.Float64("scale", 0.02, "scale for -dataset")
		mined   = flag.Bool("mined", false, "start from the mined rule pool instead of the sample rules")
	)
	eng := cliflags.NewEngine()
	eng.Register(flag.CommandLine)
	snap := cliflags.NewSnapshot()
	snap.Register(flag.CommandLine)
	flag.Parse()
	d := newDebugger(os.Stdout, eng.Config())
	d.saveOpts = snap.Options()
	if *dataset != "" {
		if err := d.load(*dataset, *scale, *mined); err != nil {
			fmt.Fprintln(os.Stderr, "emdebug:", err)
			os.Exit(1)
		}
	}
	in := bufio.NewScanner(os.Stdin)
	interactive := isTerminal()
	if interactive {
		fmt.Println("emdebug — interactive rule debugging (type 'help')")
	}
	for {
		if interactive {
			fmt.Print("em> ")
		}
		if !in.Scan() {
			break
		}
		line := in.Text()
		quit, err := d.exec(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		if quit {
			break
		}
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "emdebug:", err)
		os.Exit(1)
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
