package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/server"
)

// jobs-dist: one closed-loop HTTP client submits force_brute jobs to a
// coordinator-mode server with a file-backed job store and two in-process
// workers (one lease at a time each), and polls each job to completion.
// Spaces fall on both sides of the distribution threshold (2^21), so
// some jobs sweep on the server's local pool and some as range leases.
// Per pass, the 20-null split pair (a local sweep) has four faster jobs
// (the 19-null ring and three leased 21-null rings) and four slower ones,
// so that the median latency falls among that one shape's samples.
var jobsPass = []sweepShape{
	{"ring", 19, false}, {"ring", 20, true}, {"split", 20, false}, // local
	{"ring", 21, false}, {"ring", 21, false}, {"ring", 21, false}, // leased
	{"ring", 22, false}, {"ring", 22, false}, {"ring", 21, true},
}

const (
	jobsWorkers = 2
	// jobsWorkerPoll is the workers' idle lease-pull interval. The default
	// (dist.DefaultPoll, 250ms) would add a uniformly random pickup delay
	// of up to a quarter second to every leased job and swamp the lease
	// path this workload measures.
	jobsWorkerPoll = 10 * time.Millisecond
	// jobsPollEvery is the client's job-status poll interval.
	jobsPollEvery = 5 * time.Millisecond
)

// storePolicy states the job store's flush policy, which this benchmark
// does not change.
var storePolicy = fmt.Sprintf("FileStore (jobs-dist only): one JSON file per job, temp file + rename, no fsync; "+
	"written on every state change and every %v while running (jobs.DefaultPersistInterval); workers poll every %v when idle",
	jobs.DefaultPersistInterval, jobsWorkerPoll)

type jobsEnv struct {
	b        *bench
	ls       *liveServer
	storeDir string
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

func setupJobsDist(ctx context.Context, b *bench) (env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(outDir, "jobstore-")
	if err != nil {
		return nil, err
	}
	store, err := jobs.NewFileStore(storeDir)
	if err == nil {
		var ls *liveServer
		if ls, err = startServer(server.Config{Workers: b.nproc, Coordinator: true, JobStore: store}); err == nil {
			return startJobsDist(ctx, b, ls, storeDir)
		}
	}
	_ = os.RemoveAll(storeDir)
	return nil, err
}

// startJobsDist joins the workers to a started coordinator and warms up.
func startJobsDist(ctx context.Context, b *bench, ls *liveServer, storeDir string) (env, error) {
	e := &jobsEnv{b: b, ls: ls, storeDir: storeDir}
	wctx, stop := context.WithCancel(context.Background())
	e.stop = stop
	for i := 0; i < jobsWorkers; i++ {
		e.wg.Add(1)
		go func(i int) {
			defer e.wg.Done()
			_ = dist.RunWorker(wctx, dist.WorkerConfig{Coordinator: ls.base, Name: fmt.Sprintf("w%d", i+1), Parallel: 1, Poll: jobsWorkerPoll})
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); ls.srv.Coordinator().WorkerCount() < jobsWorkers; {
		if time.Now().After(deadline) {
			e.close()
			return nil, errors.New("workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	// Warm-up: one local and one leased job.
	nm := newNamer(b.seed, "w")
	for _, o := range []op{
		e.job(ring(18, true, "E", nm.next(), nm.next()), false, "warm-up"),
		e.job(ring(21, true, "E", nm.next(), nm.next()), false, "warm-up"),
	} {
		if err := o.run(ctx, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *jobsEnv) cycle(_, k int) []op {
	nm := newNamer(e.b.seed, fmt.Sprintf("j%d", k))
	ops := make([]op, 0, len(jobsPass))
	for i, sh := range jobsPass {
		ops = append(ops, e.job(sh.instance(i, k, nm), sh.comp, sh.label()))
	}
	return ops
}

// job submits one force_brute job and polls it to completion: over HTTP
// when untraced; traced, through Server.StartJob (the call the POST
// handler makes) and the job-status handler in process.
func (e *jobsEnv) job(inst instance, comp bool, class string) op {
	kind, want := server.KindVal, inst.val
	if comp {
		kind, want = server.KindComp, inst.comp
	}
	space, _ := new(big.Float).SetInt(inst.space).Float64()
	req := server.Request{Database: inst.text, Query: inst.query, Kind: kind, ForceBrute: true}
	return op{class: class, work: space, run: func(ctx context.Context, tr *opTrace) error {
		var job *server.Job
		if tr == nil {
			job = new(server.Job)
			if err := e.b.call(ctx, http.MethodPost, e.ls.base+"/v1/jobs", req, job); err != nil {
				return err
			}
		} else if err := tr.do("jobs.submit", func() (err error) { job, err = e.ls.srv.StartJob(req); return }); err != nil {
			return err
		}
		id := job.ID
		err := tr.do("jobs.wait", func() error {
			for {
				var err error
				if job, err = e.status(ctx, id, tr != nil); err != nil {
					return err
				}
				switch job.Status {
				case server.JobDone, server.JobFailed, server.JobCancelled:
					return nil
				}
				time.Sleep(jobsPollEvery)
			}
		})
		observed := time.Now()
		if err != nil {
			return err
		}
		if job.Status != server.JobDone || job.Result == nil {
			return fmt.Errorf("job %s ended %s: %s", id, job.Status, job.Error)
		}
		if err := checkCount(job.Result.Count, want); err != nil {
			return err
		}
		created, err1 := time.Parse(time.RFC3339Nano, job.CreatedAt)
		finished, err2 := time.Parse(time.RFC3339Nano, job.FinishedAt)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("job %s timestamps: %v, %v", id, err1, err2)
		}
		wall := finished.Sub(created)
		tr.note("jobs.server_wall_ms", float64(wall)/1e6)
		tr.note("jobs.poll_lag_ms", float64(observed.Sub(finished))/1e6)
		path := "local"
		if job.Cluster != nil {
			path = "leased"
		}
		tr.note("jobs."+path+"_space", space)
		tr.note("jobs."+path+"_wall_s", wall.Seconds())
		return nil
	}}
}

// status fetches one job's snapshot, over HTTP or through the handler.
func (e *jobsEnv) status(ctx context.Context, id string, direct bool) (*server.Job, error) {
	job := new(server.Job)
	if !direct {
		return job, e.b.call(ctx, http.MethodGet, e.ls.base+"/v1/jobs/"+id, nil, job)
	}
	rec := httptest.NewRecorder()
	e.ls.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	return job, json.Unmarshal(rec.Body.Bytes(), job)
}

func (e *jobsEnv) counters() server.Stats { return e.ls.srv.Stats() }

func (e *jobsEnv) close() {
	e.stop()
	e.wg.Wait()
	e.ls.close()
	_ = os.RemoveAll(e.storeDir) // a leftover record only costs disk inside the build directory
}
