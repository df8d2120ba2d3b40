// Session resume: the maintainability half of the paper's goal. An
// analyst's debugging session — matching function, feature memo, and
// the materialized rule/predicate bitmaps — is saved to disk and
// restored, so the next sitting skips the cold start entirely.
//
//	go run ./examples/session_resume
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"rulematch/internal/core"
	"rulematch/internal/datagen"
	"rulematch/internal/incremental"
	"rulematch/internal/persist"
	"rulematch/internal/rule"
	"rulematch/internal/sim"
)

func main() {
	cfg := datagen.StandardConfig(datagen.Books(), 0.2)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f, err := rule.ParseFunction(ds.Domain.SampleRules())
	if err != nil {
		log.Fatal(err)
	}
	lib := sim.Standard()
	c, err := core.Compile(f, lib, ds.A, ds.B)
	if err != nil {
		log.Fatal(err)
	}

	// --- Sitting 1: cold run, one refinement, save. ---
	s := incremental.NewSession(c, ds.Pairs)
	start := time.Now()
	if err := s.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	cold := time.Since(start)
	fmt.Printf("sitting 1: cold run over %d pairs: %v, %d matches\n",
		len(ds.Pairs), cold.Round(time.Microsecond), s.MatchCount())
	if err := s.SetThreshold(0, 0, 0.85); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sitting 1: relaxed a threshold, now %d matches\n", s.MatchCount())

	dir, err := os.MkdirTemp("", "rulematch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "session.em")
	if err := persist.SaveFile(path, s); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("sitting 1: saved session (%d KB) and went home\n\n", fi.Size()/1024)

	// --- Sitting 2: restore and keep working; no cold start. ---
	restored, err := persist.LoadFile(path, lib, ds.A, ds.B)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sitting 2: restored %d matches, %d memoized values\n",
		restored.MatchCount(), restored.M.Memo.Entries())

	start = time.Now()
	// The full re-check is now memo-only.
	if err := restored.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sitting 2: full re-check with restored memo: %v (cold was %v)\n",
		time.Since(start).Round(time.Microsecond), cold.Round(time.Microsecond))

	r, err := rule.ParseRule("r4: jaro_winkler(author, author) >= 0.93 and jaccard(title, title) >= 0.3")
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := restored.AddRule(r); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sitting 2: added a rule incrementally in %v, now %d matches\n",
		time.Since(start).Round(time.Microsecond), restored.MatchCount())

	if err := restored.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sitting 2: state verified consistent with from-scratch evaluation")
}
