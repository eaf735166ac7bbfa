package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/server"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// liveServer is an in-process incdb server on a loopback port.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

func startServer(cfg server.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(cfg)
	ls := &liveServer{srv: s, hs: &http.Server{Handler: s.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener, waits for the serve loop to return and
// drains the server.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // a timeout only leaves idle connections behind
	<-ls.done
	ls.srv.Shutdown(ctx)
}

// call sends one JSON request and decodes the JSON reply into out; a
// non-2xx status (a 429 refusal included) is an error.
func (b *bench) call(ctx context.Context, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// countHTTP answers a count over the wire and checks it.
func (b *bench) countHTTP(ctx context.Context, base, dbText, query string, comp bool, want *big.Int) error {
	kind := server.KindVal
	if comp {
		kind = server.KindComp
	}
	var resp server.Response
	if err := b.call(ctx, http.MethodPost, base+"/v1/count", server.Request{Database: dbText, Query: query, Kind: kind}, &resp); err != nil {
		return err
	}
	return checkCount(resp.Count, want)
}

func checkCount(got string, want *big.Int) error {
	if got != want.String() {
		return fmt.Errorf("wrong count: got %s, want %s", abbrev(got), abbrev(want.String()))
	}
	return nil
}

func abbrev(s string) string {
	if len(s) > 24 {
		return fmt.Sprintf("%s…(%d digits)", s[:12], len(s))
	}
	return s
}

// countDirect answers a count the way the /v1/count handler does —
// parse the query, parse and prepare an inline database (or use the live
// session), peek at the result cache, compute on a miss — with each
// public call inside a span. The miss path calls Explain before Count so
// planning (with engine compilation) and execution are timed apart; Count
// then finds the plan cached.
func countDirect(ctx context.Context, tr *opTrace, s *solver.Solver, live *solver.PreparedDB, dbText, query string, comp bool, want *big.Int) error {
	var q cq.Query
	if err := tr.do("cq.parse", func() (err error) { q, err = cq.Parse(query); return }); err != nil {
		return err
	}
	pdb := live
	if dbText != "" {
		var err error
		if pdb, err = prepareDirect(tr, s, dbText); err != nil {
			return err
		}
	}
	kind, fpKind := classify.Valuations, fingerprint.KindVal
	if comp {
		kind, fpKind = classify.Completions, fingerprint.KindComp
	}
	var res *solver.Result
	var hit bool
	_ = tr.do("solver.cached", func() error { res, hit = pdb.Cached(q, fpKind); return nil })
	if !hit {
		var err error
		if res, err = explainAndCount(ctx, tr, pdb, q, kind); err != nil {
			return err
		}
	}
	return checkCount(res.Count.String(), want)
}

// prepareDirect parses a database and prepares it on s, in spans.
func prepareDirect(tr *opTrace, s *solver.Solver, dbText string) (*solver.PreparedDB, error) {
	var db *core.Database
	if err := tr.do("core.parse", func() (err error) { db, err = core.ParseDatabaseString(dbText); return }); err != nil {
		return nil, err
	}
	tr.note("core.records", float64(db.Version()))
	var pdb *solver.PreparedDB
	err := tr.do("solver.prepare", func() (err error) { pdb, err = s.Prepare(db); return })
	return pdb, err
}

// explainAndCount plans and then executes one count, noting the plan
// route, the kernel, the swept space and the program's phase estimates.
func explainAndCount(ctx context.Context, tr *opTrace, pdb *solver.PreparedDB, q cq.Query, kind classify.CountingKind) (*solver.Result, error) {
	var pl *plan.Plan
	if err := tr.do("plan.explain", func() (err error) { pl, err = pdb.Explain(q, kind); return }); err != nil {
		return nil, err
	}
	route := "other"
	if _, ok := routeNames[pl.Method()]; ok {
		route = pl.Method()
	}
	tr.note("plan.route."+route, 1)
	var res *solver.Result
	start := time.Now()
	if err := tr.do("count.execute", func() (err error) { res, err = pdb.Count(ctx, q, kind); return }); err != nil {
		return nil, err
	}
	exec := time.Since(start).Seconds()
	if tr == nil {
		return res, nil
	}
	// Spaces beyond float64 (the large ingest tables) have no meaningful
	// rate and are left out of count.space_per_s.
	if space, acc := new(big.Float).SetInt(pdb.TotalValuations()).Float64(); acc == big.Exact && space < 1<<62 {
		tr.note("count.space", space)
		tr.note("count.exec_s", exec)
	}
	st := res.Stats
	if st.Kernel != "" {
		tr.note("sweep.kernel."+st.Kernel, 1)
		if st.SweptValuations != nil {
			f, _ := new(big.Float).SetInt(st.SweptValuations).Float64()
			tr.note("sweep.swept", f)
			tr.note("sweep.exec_s", exec)
		}
	}
	if st.PhaseStep != 0 || st.PhaseMatch != 0 || st.PhaseDedup != 0 {
		tr.note("sweep.phase_step", float64(st.PhaseStep)/1e6)
		tr.note("sweep.phase_match", float64(st.PhaseMatch)/1e6)
		tr.note("sweep.phase_dedup", float64(st.PhaseDedup)/1e6)
	}
	return res, nil
}
