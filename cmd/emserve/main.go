// Command emserve hosts the interactive debugging service: named
// incremental matching sessions behind an HTTP/JSON API, so a UI (or
// curl) can drive the paper's analyst loop — edit a rule, see the
// delta, sweep a threshold — against state the server keeps warm.
//
// Usage:
//
//	emserve -addr localhost:8080
//	emserve -addr :9000 -parallel 0
//	emserve -datadir /var/lib/emserve -fsync always
//	emserve -datadir /var/lib/emserve -mem-budget 256MB -max-sessions 100
//	emserve -listen unix:/run/emserve.sock
//	emserve -role replica -primary http://primary:8080 -addr :8081
//
// With -datadir every session lives in a directory holding its tables,
// a checksummed snapshot and an edit journal; committed edits are
// journaled before they are acknowledged, and sessions are recovered
// (snapshot + journal replay) on the next start — kill -9 included.
// With -mem-budget the server keeps hot sessions resident and evicts
// cold ones to their snapshots (LRU), transparently reloading them on
// the next touch — so the working set, not the session count, bounds
// memory.
//
// With -role replica the server follows a durable primary instead of
// taking writes: it bootstraps every session from the primary's
// snapshot, tails the primary's edit journal over HTTP, and serves the
// read endpoints from the replayed state. Writes answer 421 with the
// primary's URL; /stats reports replication lag per session. When the
// primary dies, POST /v1/promote (guarded by -promote-token) flips a
// caught-up replica into the primary under a new fenced epoch; with
// -datadir the promoted node re-homes every session durably at its
// applied sequence. See docs/TUTORIAL.md for a curl walkthrough of the
// API, including the failover drill.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rulematch/internal/cliflags"
	"rulematch/internal/replica"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "listen address (TCP)")
		listen   = flag.String("listen", "", "listen spec: host:port or unix:/path/to.sock; overrides -addr")
		maxBody  = flag.Int64("maxbody", server.DefaultMaxBodyBytes, "request body size cap in bytes")
		drainFor = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		dataDir  = flag.String("datadir", "", "persist sessions here (snapshot + edit journal); empty = in-memory only")
		fsyncPol = flag.String("fsync", "always", "journal sync policy: always, never, or an interval like 500ms")
		compact  = flag.Int64("compact", wal.DefaultCompactBytes, "journal bytes that trigger snapshot compaction")
		role     = flag.String("role", "primary", "server role: primary (takes writes) or replica (follows -primary)")
		primary  = flag.String("primary", "", "primary base URL to replicate from (required with -role replica)")
		promoTok = flag.String("promote-token", "", "bearer token guarding POST /v1/promote on a replica; empty leaves it open")
	)
	eng := cliflags.NewEngine()
	eng.Register(flag.CommandLine)
	var limits cliflags.Limits
	limits.Register(flag.CommandLine)
	flag.Parse()

	budget, err := limits.Budget()
	if err != nil {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(2)
	}

	if *role != "primary" && *role != "replica" {
		fmt.Fprintf(os.Stderr, "emserve: -role must be primary or replica, not %q\n", *role)
		os.Exit(2)
	}
	if *role == "replica" && *primary == "" {
		fmt.Fprintln(os.Stderr, "emserve: -role replica requires -primary URL")
		os.Exit(2)
	}

	srv := server.New(eng.Config())
	srv.MaxBodyBytes = *maxBody
	srv.SetLimits(limits.MaxSessions, budget, limits.MaxEdits)
	srv.SetTenantQuota(limits.MaxTenantEdits)

	policy, err := wal.ParseSyncPolicy(*fsyncPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(2)
	}

	var mgr *replica.Manager
	if *role == "replica" {
		srv.SetPrimary(*primary)
		mgr = replica.New(replica.Config{
			PrimaryURL: *primary,
			Store:      srv.Store(),
			Core:       eng.Config(),
		})
		srv.SetReplicaSource(mgr)
		srv.SetPromoteToken(*promoTok)
		// While following, a replica's state is fully determined by the
		// primary's snapshot + journal; re-journaling it locally would
		// only race the replication stream. The datadir is held back for
		// promotion: POST /v1/promote re-homes every caught-up session
		// there under the new epoch.
		var durCfg *server.Durability
		if *dataDir != "" {
			durCfg = &server.Durability{Dir: *dataDir, Policy: policy, CompactAt: *compact}
			log.Printf("emserve: datadir %s held for promotion; sessions are ephemeral while following", *dataDir)
		}
		srv.SetPromoter(func() (server.PromoteOutcome, error) {
			res, err := mgr.Promote(durCfg)
			if err != nil {
				return server.PromoteOutcome{}, err
			}
			out := server.PromoteOutcome{Epoch: res.Epoch}
			for _, ps := range res.Sessions {
				out.Sessions = append(out.Sessions, server.PromotedSessionInfo{
					Name: ps.Name, AppliedSeq: ps.AppliedSeq,
				})
			}
			log.Printf("emserve: promoted to primary at epoch %d (%d sessions)", res.Epoch, len(out.Sessions))
			return out, nil
		})
		mgr.Start()
		log.Printf("emserve: replica of %s", *primary)
	} else if *dataDir != "" {
		err = srv.EnableDurability(server.Durability{Dir: *dataDir, Policy: policy, CompactAt: *compact})
		if err != nil {
			// Degrade rather than die: an unwritable datadir should not
			// take the debugger down. The condition is logged and visible
			// in /stats (durable=false) and expvar. Without a datadir the
			// memory budget becomes a hard admission cap (nothing to
			// evict to).
			log.Printf("emserve: datadir unavailable, running ephemeral: %v", err)
		} else if n, err := srv.RecoverSessions(); err != nil {
			log.Printf("emserve: session recovery: %v", err)
		} else {
			log.Printf("emserve: datadir %s (fsync=%s), %d sessions recovered", *dataDir, policy, n)
		}
	}

	spec := *listen
	if spec == "" {
		spec = *addr
	}
	ln, err := server.Listen(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}

	// On SIGINT/SIGTERM: refuse new work (503 except /healthz), then
	// let in-flight edits and sweeps finish before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-sig
		log.Printf("emserve: draining (%v budget)", *drainFor)
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("emserve: shutdown: %v", err)
		}
		if mgr != nil {
			mgr.Stop()
		}
		// All requests drained: sync and close the session journals.
		srv.CloseSessions()
		close(done)
	}()

	if budget > 0 {
		log.Printf("emserve: memory budget %d bytes, max sessions %d, max edits %d",
			budget, limits.MaxSessions, limits.MaxEdits)
	}
	log.Printf("emserve: listening on %s (workers=%d)", ln.Addr(), eng.Parallel)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "emserve:", err)
		os.Exit(1)
	}
	<-done
	log.Printf("emserve: drained %d sessions, bye", srv.SessionCount())
}
