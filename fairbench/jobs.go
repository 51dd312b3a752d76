package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/sweep"
)

const (
	// workerNodes is the size of the in-process worker pool.
	workerNodes = 2
	// registryTTL outlives any run: the in-process workers never
	// heartbeat.
	registryTTL = 24 * time.Hour
)

// jobsCluster has one client per tenant, each submitting a small sweep
// job to the multi-tenant job service and waiting for it, like
// `fairctl submit -wait`. Jobs run on two in-process worker servers
// reached over loopback HTTP.
type jobsCluster struct {
	scenarios, trials, blocks int
	// shardSize pins the cluster's shard cut. Adaptive sizing follows an
	// EWMA of measured throughput, which would make the number of shards
	// per job depend on timing.
	shardSize int
}

func (jobsCluster) name() string   { return "jobs-cluster" }
func (jobsCluster) clients() int   { return 2 }
func (jobsCluster) detailed() bool { return false }

func (w jobsCluster) request(seed uint64, client, seq int) request {
	r := newRNG(seed, streamJobs, uint64(client), uint64(seq))
	req := newRequest(w.clients(), client, seq)
	for k := range w.scenarios {
		req.specs = append(req.specs, cheapSpec(r, fmt.Sprintf("%s/%d", req.trace(), k), w.trials, w.blocks))
	}
	return req
}

type jobsSystem struct {
	mgr       *fairness.JobManager
	servers   []*httptest.Server
	transport *http.Transport
	done      *doneWatcher
	tr        *tracer
}

func (w jobsCluster) setup(_ context.Context, e env) (system, error) {
	backend := fairness.MonteCarloBackend().Name()
	reg := fairness.NewClusterRegistry(backend, registryTTL)
	s := &jobsSystem{done: &doneWatcher{ch: map[string]chan struct{}{}}, tr: e.tracer}
	for range workerNodes {
		var opts []fairness.EngineOption
		if e.tracer != nil {
			opts = append(opts, fairness.WithBackend(tracedEvaluator{e.tracer}))
		}
		eng := fairness.NewEngine(opts...)
		// The worker runs shards through its Engine, as fairnessd does.
		var run cluster.RunFunc = func(ctx context.Context, specs []fairness.Scenario, on func(fairness.SweepOutcome)) (sweep.Stats, error) {
			rep, err := eng.SweepObserved(ctx, specs, on)
			if rep == nil {
				return sweep.Stats{}, err
			}
			return rep.Stats, err
		}
		if e.tracer != nil {
			run = tracedRunFunc(e.tracer, run)
		}
		mux := http.NewServeMux()
		cluster.NewWorkerServer(run).Register(mux)
		mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(rw, `{"status":"ok","backend":%q}`, backend)
		})
		var h http.Handler = mux
		if e.tracer != nil {
			h = tracedWorkerHandler(mux)
		}
		srv := httptest.NewServer(h)
		s.servers = append(s.servers, srv)
		if err := reg.Register(srv.URL, backend, 0); err != nil {
			s.close()
			return nil, err
		}
	}
	// One keep-alive pool for the whole run: a nil client would dial
	// fresh connections for every job.
	s.transport = http.DefaultTransport.(*http.Transport).Clone()
	s.transport.MaxIdleConnsPerHost = 16
	var rt http.RoundTripper = s.transport
	if e.tracer != nil {
		rt = tracedTransport{s.transport, e.tracer}
	}
	runner := fairness.JobClusterRunner(fairness.ClusterOptions{
		Registry:   reg,
		Backend:    backend,
		ShardSize:  w.shardSize,
		HTTPClient: &http.Client{Transport: rt},
	})
	if e.tracer != nil {
		runner = tracedRunner(e.tracer, runner)
	}
	mgr, err := fairness.NewJobManager(fairness.JobConfig{
		Runner: runner,
		// As fairnessd: twice the live pool keeps every worker busy while
		// tenants still contest dispatch.
		Capacity: func() int { return 2 * len(reg.Live()) },
		// The job service's event stream tells a waiting client the moment
		// its job finishes, without polling.
		Tracer: fairness.NewTracer(s.done),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.mgr = mgr
	return s, nil
}

func (s *jobsSystem) do(ctx context.Context, req request) response {
	var jt *jobTimes
	if s.tr != nil {
		jt = s.tr.job(req.trace())
		jt.submitted = s.tr.now()
	}
	info, err := s.mgr.Submit(fairness.JobSubmitRequest{
		Name:   req.trace(),
		Tenant: fmt.Sprintf("tenant-%d", req.client),
		Specs:  req.specs,
	})
	if err != nil {
		return response{err: err}
	}
	select {
	case <-s.done.wait(info.ID):
		s.done.forget(info.ID)
	case <-ctx.Done():
		return response{err: ctx.Err()}
	}
	if jt != nil {
		jt.observed = s.tr.now()
		if jt.started > 0 {
			s.tr.addChild(spanFrom(ctx), "jobs.queue", jt.submitted, jt.started)
		}
	}
	var resp response
	token := ""
	for {
		page, err := s.mgr.Results(info.ID, token, 0)
		if err != nil {
			return response{err: err}
		}
		resp.outcomes = append(resp.outcomes, page.Outcomes...)
		info = page.Job
		if token = page.NextPageToken; token == "" {
			break
		}
	}
	if info.State != fairness.JobStateDone || info.Partial {
		resp.err = fmt.Errorf("job %s finished %s (partial %v): %s", info.ID, info.State, info.Partial, info.Error)
	}
	resp.computed, resp.trials = info.Stats.Computed, info.Stats.TrialsRun
	return resp
}

// verify checks that each job's merged outcomes answer its scenarios and
// are identical, beyond timing and cache bookkeeping, to a local sweep.
func (s *jobsSystem) verify(ctx context.Context, recs []*record, specsOf func(*record) []fairness.Scenario) error {
	local, err := reference(ctx, recs, specsOf, func(r *record) []int {
		all := make([]int, r.req.n)
		for i := range all {
			all[i] = i
		}
		return all
	})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.failure == "" {
			r.failure = checkPrint(r, specsOf(r), func(i int, _ string) (uint64, bool, bool) {
				return local[r][i], false, true
			})
		}
	}
	return nil
}

func (s *jobsSystem) close() {
	if s.mgr != nil {
		s.mgr.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
}

// doneWatcher reads the job service's NDJSON event stream and wakes the
// client waiting on each finished job.
type doneWatcher struct {
	mu sync.Mutex
	ch map[string]chan struct{}
}

func (d *doneWatcher) chanFor(id string) chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.ch[id]
	if !ok {
		c = make(chan struct{})
		d.ch[id] = c
	}
	return c
}

// wait returns a channel closed once job id has finished.
func (d *doneWatcher) wait(id string) <-chan struct{} { return d.chanFor(id) }

func (d *doneWatcher) forget(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.ch, id)
}

// Write receives one event line per call.
func (d *doneWatcher) Write(p []byte) (int, error) {
	if !bytes.Contains(p, []byte(`"event":"job_finish"`)) {
		return len(p), nil
	}
	var ev struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(p, &ev); err != nil || ev.Job == "" {
		return 0, errors.Join(err, errors.New("job_finish event without a job id"))
	}
	c := d.chanFor(ev.Job)
	select {
	case <-c:
	default:
		close(c)
	}
	return len(p), nil
}
