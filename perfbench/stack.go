package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"rulematch/internal/cliflags"
	"rulematch/internal/core"
	"rulematch/internal/replica"
	"rulematch/internal/server"
	"rulematch/internal/wal"
)

// engineConfig is emserve's default engine configuration.
func engineConfig() core.Config { return cliflags.NewEngine().Config() }

// node is one in-process emserve: a server behind a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve returns
}

func serve(srv *server.Server) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return n, nil
}

func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
}

// stack is the system under test: a durable primary (fsync=always)
// and, for replicated-stream, one follower running emserve's replica
// defaults, started after the sessions exist.
type stack struct {
	primary  *node
	follower *node
	mgr      *replica.Manager
	client   *client
}

// startStack starts the primary, creates every session over HTTP and
// bootstraps the follower; the returned duration is the set-up time.
func startStack(in *inputs, dir string) (*stack, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(engineConfig())
	if err := srv.EnableDurability(server.Durability{Dir: dir, Policy: wal.SyncPolicy{Mode: wal.SyncAlways}}); err != nil {
		return nil, 0, err
	}
	if in.memBudget > 0 {
		srv.SetLimits(0, in.memBudget, 0)
	}
	p, err := serve(srv)
	if err != nil {
		return nil, 0, err
	}
	st := &stack{primary: p, client: newClient()}
	for _, s := range in.sessions {
		code, _, _, err := st.client.do(http.MethodPost, p.base+"/v1/sessions", s.Body)
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", code, st.client.buf.Bytes())
		}
		if err != nil {
			st.close()
			return nil, 0, fmt.Errorf("create session %s: %w", s.Name, err)
		}
	}
	if in.follower {
		if err := st.startFollower(in); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	return st, time.Since(t0), nil
}

// startFollower brings up a replica server sharing its store with a
// replication manager (emserve -role replica, default settings) and
// waits until every session is bootstrapped.
func (st *stack) startFollower(in *inputs) error {
	srv := server.New(engineConfig())
	srv.SetPrimary(st.primary.base)
	st.mgr = replica.New(replica.Config{PrimaryURL: st.primary.base, Store: srv.Store(), Core: engineConfig()})
	srv.SetReplicaSource(st.mgr)
	st.mgr.Start()
	f, err := serve(srv)
	if err != nil {
		return err
	}
	st.follower = f
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range in.sessions {
		for {
			if _, ok := st.mgr.AppliedSeq(s.Name); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower never bootstrapped session %s", s.Name)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// awaitApplied polls the follower at sub-millisecond intervals until
// it has applied seq, returning the wait.
func (st *stack) awaitApplied(name string, seq uint64) (time.Duration, error) {
	t0 := time.Now()
	for {
		if got, ok := st.mgr.AppliedSeq(name); ok && got >= seq {
			return time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			return time.Since(t0), fmt.Errorf("follower stuck below seq %d", seq)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (st *stack) close() {
	st.client.hc.CloseIdleConnections()
	if st.follower != nil {
		st.follower.close()
	}
	if st.mgr != nil {
		st.mgr.Stop()
	}
	st.primary.close()
	st.primary.srv.CloseSessions()
}

// client is the single load-generating client: one keep-alive
// connection per server, and one reused buffer the response body is
// drained into inside the timer (decoding happens outside it).
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// do sends one request and drains the response into c.buf. The
// elapsed time runs from send until the body is drained.
func (c *client) do(method, url string, body []byte) (int, http.Header, time.Duration, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // fully drained; nothing left to report
	d := time.Since(t0)
	return resp.StatusCode, resp.Header, d, err
}

// get is do for a body-less request that must answer 200; the body is
// left in c.buf.
func (c *client) get(url string) error {
	code, _, _, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, c.buf.Bytes())
	}
	return nil
}
