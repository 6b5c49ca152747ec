package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"cwcflow/internal/core"
	"cwcflow/internal/obs"
)

// streamEvent is one NDJSON line (or SSE data payload) of a job stream: a
// leading "status" snapshot (progress plus the backpressure/throughput
// counters), a window, a "gap" marker when requested windows were already
// evicted from the bounded result ring, or the terminal "end" marker
// (which carries the final status).
type streamEvent struct {
	Type   string           `json:"type"` // "status", "window", "gap" or "end"
	Window *core.WindowStat `json:"window,omitempty"`
	Status *Status          `json:"status,omitempty"`
	// Lost counts windows the client will not see: evicted-before-replay
	// windows on a gap event, mailbox-dropped windows on an end event.
	Lost int `json:"lost,omitempty"`
}

// resultResponse is the body of GET /jobs/{id}/result.
type resultResponse struct {
	Status Status `json:"status"`
	// FirstWindow is the index of the first retained window; earlier ones
	// were evicted from the bounded result ring.
	FirstWindow int               `json:"first_window"`
	Windows     []core.WindowStat `json:"windows"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.m.reg)
	s.mux.HandleFunc("GET /tenants", s.handleTenants)
	s.mux.HandleFunc("GET /workers", s.handleWorkers)
	s.mux.HandleFunc("POST /workers/register", s.handleRegisterWorker)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /cache", s.handleCache)
	// Replicated-tier admin: drain this replica, request/trigger a lease
	// handoff, and inspect the peer directory. All answer 404 on a
	// non-replica server.
	s.mux.HandleFunc("POST /drain", s.handleDrain)
	s.mux.HandleFunc("POST /leases/{id}/handoff", s.handleLeaseHandoff)
	s.mux.HandleFunc("POST /leases/{id}/adopt", s.handleLeaseAdopt)
	s.mux.HandleFunc("GET /peers", s.handlePeers)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jobFromPath resolves the {id} path value to a locally driven job. In
// a replicated tier, a job owned by another replica is answered here
// instead (journal peek, stream redirect or cancel proxy — see
// handleForeign); only an id with neither a local job nor a lease is a
// 404. The action names which of those answers applies.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request, action string) (*Job, bool) {
	id := r.PathValue("id")
	if job, ok := s.Get(id); ok {
		return job, true
	}
	if s.handleForeign(w, r, id, action) {
		return nil, false
	}
	writeError(w, http.StatusNotFound, "unknown job %q", id)
	return nil, false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Every count here reads the same sources the /metrics gauges sample
	// (jobCounts, remoteWorkerCounts, the obs cache counters), so the two
	// surfaces can never disagree.
	total, active, queued := s.jobCounts()
	remoteWorkers, liveWorkers := s.remoteWorkerCounts()
	h := map[string]any{
		// "workers" keeps its PR1 meaning (local pool width, the
		// -sim-workers flag); the remote cluster gets unambiguous keys.
		"workers":             s.pool.Workers(),
		"stat_engines":        s.stats.Engines(),
		"scheduler":           s.opts.Scheduler,
		"tenants":             len(s.Tenants()),
		"jobs_total":          total,
		"jobs_active":         active,
		"jobs_queued":         queued,
		"remote_workers":      remoteWorkers,
		"remote_workers_live": liveWorkers,
	}
	if s.opts.Version != "" {
		h["version"] = s.opts.Version
	}
	if s.store != nil {
		// Durable store health: data dir, journal size, last compaction.
		h["store"] = s.store.Stats()
	}
	if s.cache != nil {
		h["cache_entries"] = s.cache.Len()
		h["cache_hits"] = s.m.cacheHits.Value()
	}
	if s.opts.ReplicaID != "" {
		// Replica identity and load, mirrored into the peer directory:
		// what the tier's submit forwarding and rebalancer act on.
		h["replica_id"] = s.opts.ReplicaID
		h["draining"] = s.draining.Load()
		h["jobs_owned"] = len(s.leases.HeldJobs())
		h["peers_live"] = len(s.livePeers())
	}
	writeJSON(w, http.StatusOK, h)
}

// handleWorkers lists every known remote sim worker with its liveness,
// in-flight load and failure count.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.snapshot())
}

// registerRequest is the body of POST /workers/register — the worker's
// dialable address plus an optional in-flight cap. Workers re-register
// periodically; the call doubles as the heartbeat.
type registerRequest struct {
	Addr string `json:"addr"`
	Cap  int    `json:"cap,omitempty"`
}

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding register request: %v", err)
		return
	}
	if err := s.registry.register(req.Addr, req.Cap, s.opts.WorkerInFlight); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"ttl_seconds": s.opts.WorkerTTL.Seconds(),
	})
}

// handleSubmit admits one job on behalf of the tenant named by the
// X-CWC-Tenant header (anonymous submissions land on the default tenant).
// An immediately running job answers 201; a job parked in its tenant's
// admission queue answers 202 with its queue_position; quota and
// saturation rejections answer 429 (retryable), shutdown 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	traceID, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	res, err := s.SubmitTraced(spec, r.Header.Get("X-CWC-Tenant"), traceID)
	if err != nil {
		var redir *AttachRedirectError
		if errors.As(err, &redir) {
			// The spec is in flight on another replica: send the client
			// there, where its resubmission attaches to the running job.
			w.Header().Set("Location", redir.URL+"/jobs")
			w.WriteHeader(http.StatusTemporaryRedirect)
			return
		}
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrDraining):
			// A draining replica takes nothing new, but the tier might:
			// bounce the client to the least-loaded live peer. Without one,
			// 503 — the drain finishes (or the replica exits) within a TTL.
			if loc := s.forwardTarget(math.MaxInt); loc != "" {
				w.Header().Set("Location", loc+"/jobs")
				w.WriteHeader(http.StatusTemporaryRedirect)
				return
			}
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "2")
		case errors.Is(err, errSaturated):
			// The server-wide MaxJobs cap is load, not policy: a strictly
			// less-loaded live peer can take the job, and "strictly" is what
			// keeps two mutually saturated replicas from bouncing a client
			// in a redirect cycle. Tenant quotas never forward — they must
			// hold on every replica alike.
			mine := 0
			if s.leases != nil {
				mine = len(s.leases.HeldJobs())
			}
			if loc := s.forwardTarget(mine); loc != "" {
				w.Header().Set("Location", loc+"/jobs")
				w.WriteHeader(http.StatusTemporaryRedirect)
				return
			}
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, ErrBusy):
			// The admission queue is full: capacity frees as soon as any
			// running job finishes a quantum round, so retry quickly.
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, ErrQuotaExceeded):
			// A hard per-tenant quota: held until one of the tenant's own
			// jobs completes, so back off longer than for a full queue.
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "5")
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	st := res.Job.Status()
	if res.CacheHit || res.Attached {
		// Answered without creating a job: a completed job's shell (cache
		// hit) or the running job the caller now shares (attach). Either
		// way the spec's results are (or will be) at this id — 201.
		st.CacheHit = true
	}
	code := http.StatusCreated
	if st.State == StateQueued && !st.CacheHit {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

// handleCache reports the result cache's index size and hit/attach
// counters.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.CacheStats())
}

// handleTenants lists every tenant's control-plane snapshot: quotas,
// running/queued counts, held sample budget and dispatched quanta.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Tenants())
}

// handleList lists jobs in submission order. ?state=running|done|
// cancelled|failed filters by lifecycle phase, ?limit=N keeps only the N
// most recent matches — between them the endpoint stays usable once a
// durable server accumulates a long recovered history.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var stateFilter State
	if v := q.Get("state"); v != "" {
		switch State(v) {
		case StateQueued, StateRunning, StateDone, StateCancelled, StateFailed:
			stateFilter = State(v)
		default:
			writeError(w, http.StatusBadRequest, "invalid state filter %q (want queued, running, done, cancelled or failed)", v)
			return
		}
	}
	limit := -1
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid limit=%q", v)
			return
		}
		limit = n
	}
	jobs := s.List()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		// Skip the per-job ETA projection: with many jobs it would turn
		// one list request into many DES runs.
		st := j.status(false)
		if stateFilter != "" && st.State != stateFilter {
			continue
		}
		out = append(out, st)
	}
	if limit >= 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r, "status")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r, "cancel")
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r, "result")
	if !ok {
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
	}
	windows, first := job.resultsSnapshot()
	writeJSON(w, http.StatusOK, resultResponse{
		Status:      job.Status(),
		FirstWindow: first,
		Windows:     windows,
	})
}

// handleTrace streams a job's span log as NDJSON, one span per line in
// start order — the job's whole lifecycle (admission, queue wait,
// dispatch, remote worker streams merged from their trailers, first
// window, terminal run span), all under one trace id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r, "trace")
	if !ok {
		return
	}
	spans, dropped := job.trace.Snapshot()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-CWC-Trace-Id", job.trace.ID())
	if dropped > 0 {
		w.Header().Set("X-CWC-Trace-Dropped", strconv.Itoa(dropped))
	}
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i := range spans {
		_ = enc.Encode(&spans[i])
	}
}

// handleStream streams a job's windowed statistics incrementally: first a
// "status" snapshot of the job's progress and backpressure counters, then
// a replay of the buffered windows from ?from= (default 0) onward, then
// live windows as the analysis publishes them, then one "end" event
// carrying the terminal status. The format is NDJSON by default and
// Server-Sent Events when the client asks for text/event-stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r, "stream")
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid from=%q", v)
			return
		}
		from = n
	}
	flusher, canFlush := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	send := func(ev streamEvent) error {
		var err error
		if sse {
			data, merr := json.Marshal(ev)
			if merr != nil {
				return merr
			}
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		} else {
			err = json.NewEncoder(w).Encode(ev)
		}
		if err == nil && canFlush {
			flusher.Flush()
		}
		return err
	}
	// The response is committed in open, once Follow has subscribed: a bad
	// from offset must still be reportable as a 400.
	opened, evicted := false, 0
	open := func(gap int) error {
		opened, evicted = true, gap
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		// Leading status snapshot: progress and the backpressure/throughput
		// counters (windows emitted, batches spilled, queue depth) at stream
		// open, so a client sees the job's health before the first window.
		st := job.Status()
		if err := send(streamEvent{Type: "status", Status: &st}); err != nil || gap == 0 {
			return err
		}
		return send(streamEvent{Type: "gap", Lost: gap})
	}
	lost, err := job.Follow(r.Context(), from, open, func(ws core.WindowStat) error {
		return send(streamEvent{Type: "window", Window: &ws})
	})
	switch {
	case err == nil:
		// The end event counts only what the mailbox dropped; the gap
		// event already reported the evicted windows. A failed write has
		// nobody left to tell.
		st := job.Status()
		_ = send(streamEvent{Type: "end", Status: &st, Lost: lost - evicted})
	case !opened:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}
