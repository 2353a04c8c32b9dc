package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/serve"
)

// serveW is the daemon workload: an in-process serve.Server on a
// loopback listener, driven by a closed loop of one HTTP client per
// worker, each taking the next session: submitting, long-polling the
// result and reading its events and trace, the way capuchin-serve's
// sweep-script callers do.
type serveW struct {
	workers  int
	sessions []serveSession
	oracle   *oracle
	last     *serveState
}

// serveState is what one repetition leaves for check and trace.
type serveState struct {
	// bodies[i] and ids[i] are the result body and run ID of session i's
	// cold submission.
	bodies    [][]byte
	ids       []string
	phaseMS   map[string][]float64
	snap      serve.Stats
	queuedMax int
}

// serveTracePasses is how many traced passes serve's latency
// percentiles are pooled over, so the pool size, and with it the tail's
// percentile, is the same on every run.
const serveTracePasses = 4

func setupServe(seed uint64, workers int) (instance, error) {
	w := &serveW{workers: workers, sessions: serveInputs(seed), oracle: newOracle()}
	// Warm-up: a cold submission and its hit per menu model on a
	// throwaway server.
	d, err := startDaemon(workers)
	if err != nil {
		return nil, err
	}
	for _, m := range serveMenu {
		warm := serve.RunRequest{Model: m.model, Batch: m.lo / 2, System: "tf-ori"}
		if _, _, _, _, err = d.submitAndFetch(warm, true); err != nil {
			break
		}
		if _, _, _, _, err = d.submitAndFetch(warm, false); err != nil {
			break
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	return w, nil
}

// daemon is one running server with its listener and client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	tr     *http.Transport
	client *http.Client
	served chan struct{}
}

func startDaemon(workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{Workers: workers, Jobs: workers})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
		served: make(chan struct{}),
	}
	d.client = &http.Client{Transport: d.tr}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop drains the server (every accepted run finishes), then shuts the
// listener down and waits for the serving goroutine to exit. Drain, not
// Close: Close can race a queued run into an aborted result.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.tr.CloseIdleConnections()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	<-d.served
	return err
}

// call performs one request and returns the body of a response with the
// wanted status.
func (d *daemon) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// submitAndFetch submits rr and fetches its result: a cold submission
// must be admitted as new (202) and long-polls with ?wait=1; a hit must
// be deduplicated (200) and finds its result complete. It returns the
// run ID, the result body and the submit and fetch times.
func (d *daemon) submitAndFetch(rr serve.RunRequest, cold bool) (id string, body []byte, submit, fetch time.Duration, err error) {
	req, err := json.Marshal(rr)
	if err != nil {
		return "", nil, 0, 0, err
	}
	want, path := http.StatusOK, "/v1/runs/%s"
	if cold {
		want, path = http.StatusAccepted, "/v1/runs/%s?wait=1"
	}
	t0 := time.Now()
	b, err := d.call(http.MethodPost, "/v1/runs", req, want)
	submit = time.Since(t0)
	if err != nil {
		return "", nil, submit, 0, err
	}
	var reply struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(b, &reply); err != nil {
		return "", nil, submit, 0, fmt.Errorf("decoding submit reply: %w", err)
	}
	if reply.Deduped == cold {
		return "", nil, submit, 0, fmt.Errorf("submit of %+v: deduped=%v", rr, reply.Deduped)
	}
	t1 := time.Now()
	body, err = d.call(http.MethodGet, fmt.Sprintf(path, reply.ID), nil, http.StatusOK)
	return reply.ID, body, submit, time.Since(t1), err
}

// read fetches one auxiliary endpoint: the server's stats (returning
// its queue depth), its metrics, or the events or trace of run id.
func (d *daemon) read(what, id string) (queued int, err error) {
	var path string
	switch what {
	case "stats":
		b, err := d.call(http.MethodGet, "/v1/stats", nil, http.StatusOK)
		if err != nil {
			return 0, err
		}
		var st serve.Stats
		if err := json.Unmarshal(b, &st); err != nil {
			return 0, fmt.Errorf("decoding stats: %w", err)
		}
		return st.Queued, nil
	case "metrics":
		path = "/metrics"
	default:
		path = fmt.Sprintf("/v1/runs/%s/%s", id, what)
	}
	_, err = d.call(http.MethodGet, path, nil, http.StatusOK)
	return 0, err
}

func (w *serveW) rep() repResult { return w.run(nil) }

// run executes the sessions once on a fresh daemon. rec, when non-nil,
// receives a span per request.
func (w *serveW) run(rec *recorder) repResult {
	w.last = nil
	var res repResult
	d, err := startDaemon(w.workers)
	if err != nil {
		res.ops, res.failures = 1, []string{fmt.Sprintf("starting daemon: %v", err)}
		return res
	}
	n := len(w.sessions)
	st := &serveState{bodies: make([][]byte, n), ids: make([]string, n), phaseMS: make(map[string][]float64)}
	var mu sync.Mutex
	record := func(phase string, dur time.Duration) {
		mu.Lock()
		st.phaseMS[phase] = append(st.phaseMS[phase], msOf(dur.Nanoseconds()))
		mu.Unlock()
	}
	failures := make([][]string, n)
	opMS := make([][]float64, n)
	start := time.Now()
	closedLoop(w.workers, n, func(i int) {
		s := w.sessions[i]
		// do times one request of kind cold, hit or read.
		do := func(kind string, f func() error) {
			root := 0
			if rec != nil {
				root = rec.start(rec.cell(), 0, "serve", "request "+kind)
			}
			t0 := time.Now()
			err := f()
			dur := time.Since(t0)
			if rec != nil {
				rec.finish(root)
			}
			record(kind, dur)
			opMS[i] = append(opMS[i], msOf(dur.Nanoseconds()))
			if err != nil {
				failures[i] = append(failures[i], fmt.Sprintf("session %d %s request: %v", i, kind, err))
			}
		}
		do("cold", func() error {
			id, body, submit, wait, err := d.submitAndFetch(s.Req, true)
			st.ids[i], st.bodies[i] = id, body
			record("submit", submit)
			record("wait", wait)
			return err
		})
		if st.ids[i] == "" {
			return // not admitted: there is no run to read
		}
		for _, what := range []string{"events", "trace"} {
			do("read", func() error { _, err := d.read(what, st.ids[i]); return err })
		}
		if s.Hit {
			do("hit", func() error {
				_, body, _, fetch, err := d.submitAndFetch(s.Req, false)
				record("fetch", fetch)
				if err == nil && !bytes.Equal(body, st.bodies[i]) {
					err = errors.New("hit returned different bytes than the cold submission")
				}
				return err
			})
		}
		if s.Scrape {
			for _, what := range []string{"stats", "metrics"} {
				do("read", func() error {
					q, err := d.read(what, "")
					mu.Lock()
					st.queuedMax = max(st.queuedMax, q)
					mu.Unlock()
					return err
				})
			}
		}
	})
	res.wall = time.Since(start)
	dg := newDigest()
	for i := range w.sessions {
		res.ops += len(opMS[i])
		res.opMS = append(res.opMS, opMS[i]...)
		res.failures = append(res.failures, failures[i]...)
		body := st.bodies[i]
		if body == nil {
			continue
		}
		dg.write(body)
		var wire struct {
			OK         bool              `json:"ok"`
			Error      string            `json:"error"`
			Stats      []json.RawMessage `json:"stats"`
			Throughput float64           `json:"throughputPerSec"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("decoding result: %v", err))
			continue
		}
		res.simIters += len(wire.Stats)
		if wire.OK {
			res.samplesPerS = append(res.samplesPerS, wire.Throughput)
		} else if !strings.Contains(wire.Error, "out-of-memory") && !strings.Contains(wire.Error, "out of device memory") {
			res.failures = append(res.failures, "served run failed: "+wire.Error)
		}
	}
	res.digest = dg.sum()
	st.snap = d.srv.Snapshot()
	w.last = st
	res.heapMiB = heapMiB()
	if err := d.stop(); err != nil {
		res.failures = append(res.failures, fmt.Sprintf("draining: %v", err))
	}
	return res
}

// serveSampled is how many sessions' cold configs the byte-identity
// check re-runs directly.
const serveSampled = 6

// check requires the served result bytes of sampled cold configs to
// equal serve.EncodeResult of a direct bench.Run, and applies the
// fingerprint oracle to those direct runs.
func (w *serveW) check() checks {
	var c checks
	for i, s := range w.sessions[:serveSampled] {
		cfg, err := s.Req.ToRunConfig()
		if err != nil {
			c.add(fmt.Sprintf("config %+v: %v", s.Req, err))
			continue
		}
		direct := bench.Run(bench.CanonicalConfig(cfg))
		want, err := serve.EncodeResult(direct)
		why := ""
		if err != nil || !bytes.Equal(want, w.last.bodies[i]) {
			why = fmt.Sprintf("%s: served bytes differ from EncodeResult(bench.Run)", cellLabel(direct.Config))
		}
		c.add(why)
		c.add(w.oracle.check(direct))
	}
	return c
}

// trace runs the sessions again with a span around every request, and
// re-executes every cold config layer by layer: the decomposed result,
// encoded the way the server encodes it, must equal the served bytes.
// Request latencies are pooled over the first serveTracePasses passes.
func (w *serveW) trace(l *layers) time.Duration {
	r := w.run(l.rec)
	for _, f := range r.failures {
		l.check(f)
	}
	st := w.last
	l.mu.Lock()
	if l.pairs < serveTracePasses {
		for phase, xs := range st.phaseMS {
			l.serveMS[phase] = append(l.serveMS[phase], xs...)
		}
	}
	if n := st.snap.Admitted + st.snap.Deduped; n > 0 {
		l.serveStats.dedupRatio = float64(st.snap.Deduped) / float64(n)
	}
	l.serveStats.shed = int(st.snap.Shed)
	l.serveStats.stored = st.snap.StoredRuns
	l.serveStats.queuedPeak = max(l.serveStats.queuedPeak, st.queuedMax)
	l.runner = st.snap.Runner
	l.mu.Unlock()

	closedLoop(w.workers, len(w.sessions), func(i int) {
		cfg, err := w.sessions[i].Req.ToRunConfig()
		if err != nil {
			l.check(err.Error())
			return
		}
		cfg = bench.CanonicalConfig(cfg)
		ct := decompose(cfg, l.rec, nil)
		l.addCell(ct)
		got, err := serve.EncodeResult(asResult(ct))
		why := ""
		if err != nil || !bytes.Equal(got, st.bodies[i]) {
			why = fmt.Sprintf("%s: decomposed result differs from the served bytes", cellLabel(cfg))
		}
		l.check(why)
	})
	return r.wall
}

// asResult assembles the bench.Result a static bench.Run would return
// from a decomposed cell.
func asResult(ct cellTrace) bench.Result {
	res := bench.Result{Config: ct.Config, Stats: ct.Stats, Err: ct.Err}
	if ct.Err == nil {
		res.OK, res.Plan = true, ct.Plan
		res.Steady = ct.Stats[len(ct.Stats)-1]
		res.Throughput = res.Steady.Throughput(ct.Config.Batch)
	}
	return res
}
