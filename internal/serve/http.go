package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/arch"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// This file is the HTTP/JSON surface of the serving tier:
//
//	POST /v1/infer         one inference through the coalescing queue
//	POST /v1/infer/stream  NDJSON request lines in, NDJSON results out
//	GET  /healthz          pool occupancy + drain state, 200/503
//	GET  /metrics          Prometheus text: obs + fleet + cache + serve
//
// The handlers translate the server's typed errors into status codes —
// ErrQueueFull 429, ErrDraining 503, *DeadlineError 504 — so clients
// can tell backpressure (retry elsewhere, with backoff) from deadline
// misses (request is gone) without parsing strings.

// maxRequestBytes caps one request body of /v1/infer and one request
// line of /v1/infer/stream, so no client can make the daemon buffer an
// unbounded input.
const maxRequestBytes = 16 << 20

// HandlerConfig wires the optional exporters of the HTTP surface.
type HandlerConfig struct {
	// DefaultDeadline bounds each request that names no deadline_ms of
	// its own (0: no server-imposed deadline).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (0: uncapped).
	MaxDeadline time.Duration
	// ObsRec, when non-nil, contributes the hardware-counter snapshot
	// to /metrics.
	ObsRec *obs.Recorder
	// FleetRec, when non-nil, contributes the pool lifecycle series.
	FleetRec *obs.FleetRecorder
	// CacheRec, when non-nil, contributes the image-cache series.
	CacheRec *obs.CacheRecorder
}

// InferRequest is the JSON body of POST /v1/infer and of each
// /v1/infer/stream line.
type InferRequest struct {
	// Input is the flattened input tensor; Shape its dimensions
	// (defaults to [len(Input)]).
	Input []float64 `json:"input"`
	Shape []int     `json:"shape,omitempty"`
	// DeadlineMS, when positive, bounds this request end to end
	// (queueing included), overriding the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// InferResponse is the JSON body of a successful inference.
type InferResponse struct {
	Prediction int       `json:"prediction"`
	Output     []float64 `json:"output"`
	// BatchFill is how many requests shared the dispatched batch.
	BatchFill int `json:"batch_fill"`
	// Spikes and Cycles are the hardware activity of the run.
	Spikes int64 `json:"spikes"`
	Cycles int64 `json:"cycles"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind is a stable machine-readable discriminator:
	// "queue_full", "draining", "deadline_queued", "deadline_running",
	// "exhausted", "bad_request" or "internal".
	Kind string `json:"kind"`
}

// HealthResponse is the JSON body of /healthz.
type HealthResponse struct {
	// Status is "ok", "draining" or "unhealthy".
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// QueueDepth / QueueCapacity describe the coalescing queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Pool is the fleet occupancy snapshot (fleet.Pool.Stats).
	Pool fleet.PoolStats `json:"pool"`
}

// Health snapshots the server's serveability: the pool occupancy from
// Pool.Stats plus the drain state. Status is "draining" once Drain
// began, "unhealthy" when no replica would pass the serveability check
// (the pool may still rescue one inline, but a health probe should
// see the degradation), and "ok" otherwise.
func (s *Server) Health() HealthResponse {
	depth, capacity := s.QueueDepth()
	h := HealthResponse{
		Draining:      s.Draining(),
		QueueDepth:    depth,
		QueueCapacity: capacity,
		Pool:          s.pool.Stats(),
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case h.Pool.Healthy == 0:
		h.Status = "unhealthy"
	default:
		h.Status = "ok"
	}
	return h
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler(hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) { s.handleInfer(w, r, hc) })
	mux.HandleFunc("/v1/infer/stream", func(w http.ResponseWriter, r *http.Request) { s.handleStream(w, r, hc) })
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) { s.handleMetrics(w, r, hc) })
	return mux
}

// requestCtx applies the effective deadline to a request context.
func requestCtx(ctx context.Context, hc HandlerConfig, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := hc.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if hc.MaxDeadline > 0 && d > hc.MaxDeadline {
		d = hc.MaxDeadline
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// decodeInput validates one InferRequest and builds its tensor.
func decodeInput(req InferRequest) (*tensor.Tensor, error) {
	if len(req.Input) == 0 {
		return nil, errors.New("empty input")
	}
	shape := req.Shape
	if len(shape) == 0 {
		shape = []int{len(req.Input)}
	}
	n := 1
	for _, d := range shape {
		if d < 1 {
			return nil, errors.New("shape dimensions must be positive")
		}
		// Reject a dimension that would push the product past the input
		// length before multiplying: n stays ≤ len(input), so the
		// product can never wrap around and pass the check below.
		if d > len(req.Input)/n {
			return nil, errors.New("shape does not match input length")
		}
		n *= d
	}
	if n != len(req.Input) {
		return nil, errors.New("shape does not match input length")
	}
	return tensor.FromSlice(req.Input, shape...), nil
}

// errorStatus maps a serving error onto (HTTP status, machine kind).
func errorStatus(err error) (int, string) {
	var de *DeadlineError
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.As(err, &de):
		if de.Stage == StageRunning {
			return http.StatusGatewayTimeout, "deadline_running"
		}
		return http.StatusGatewayTimeout, "deadline_queued"
	case errors.Is(err, arch.ErrBadInput):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, fleet.ErrExhausted):
		return http.StatusServiceUnavailable, "exhausted"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "deadline_queued"
	}
	return http.StatusInternalServerError, "internal"
}

// writeJSON emits one JSON body with status code.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // headers are sent; nothing to do on error
}

// writeError emits the typed error body; 429 carries a Retry-After
// hint so well-behaved clients back off instead of hammering.
func writeError(w http.ResponseWriter, err error) {
	status, kind := errorStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
}

// handleInfer serves POST /v1/infer.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, hc HandlerConfig) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only", Kind: "bad_request"})
		return
	}
	var req InferRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad JSON: " + err.Error(), Kind: "bad_request"})
		return
	}
	input, err := decodeInput(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	ctx, cancel := requestCtx(r.Context(), hc, req.DeadlineMS)
	defer cancel()
	res, batch, err := s.inferBatchInfo(ctx, input)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, InferResponse{
		Prediction: res.Prediction,
		Output:     res.Output.Data(),
		BatchFill:  batch,
		Spikes:     res.Spikes,
		Cycles:     res.Cycles,
	})
}

// inferBatchInfo is Infer keeping the response's batch-fill figure.
func (s *Server) inferBatchInfo(ctx context.Context, input *tensor.Tensor) (res *arch.RunResult, batch int, err error) {
	p, err := s.Submit(ctx, input)
	if err != nil {
		return nil, 0, err
	}
	resp := <-p.req.out
	return resp.res, resp.batch, resp.err
}

// handleStream serves POST /v1/infer/stream: a gRPC-style bidirectional
// stream over NDJSON. Every request line is admitted in arrival order
// (so the stream's outputs are deterministic for a fixed admission
// sequence) and answered on its own output line, in order; per-line
// failures are reported inline and do not break the stream. A line that
// is not valid JSON, or longer than maxRequestBytes, is answered with an
// inline bad_request after the lines before it, and ends the stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, hc HandlerConfig) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only", Kind: "bad_request"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	lines := bufio.NewScanner(r.Body)
	lines.Buffer(make([]byte, 0, 64<<10), maxRequestBytes)

	// streamItem pairs a pending request with its per-request cancel;
	// items rejected before admission carry the error and its kind.
	type streamItem struct {
		p      *Pending
		cancel context.CancelFunc
		err    error
		kind   string
	}
	var window []streamItem
	// emit answers the oldest pending item; called once per admitted
	// line past the window bound, then for the tail.
	emit := func(it streamItem) {
		var line interface{}
		switch {
		case it.err != nil:
			line = ErrorResponse{Error: it.err.Error(), Kind: it.kind}
		default:
			res, err := it.p.Wait()
			if err != nil {
				_, kind := errorStatus(err)
				line = ErrorResponse{Error: err.Error(), Kind: kind}
			} else {
				line = InferResponse{Prediction: res.Prediction, Output: res.Output.Data(),
					Spikes: res.Spikes, Cycles: res.Cycles}
			}
			it.cancel()
		}
		_ = enc.Encode(line) // client gone mid-stream: nothing to do
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The submission window lets later lines coalesce with earlier ones
	// while responses still stream back in order.
	const windowSize = 32
	for lines.Scan() {
		line := bytes.TrimSpace(lines.Bytes())
		if len(line) == 0 {
			continue
		}
		var req InferRequest
		if err := json.Unmarshal(line, &req); err != nil {
			window = append(window, streamItem{err: fmt.Errorf("bad JSON: %w", err), kind: "bad_request"})
			break
		}
		input, err := decodeInput(req)
		if err != nil {
			window = append(window, streamItem{err: err, kind: "bad_request"})
		} else {
			ctx, cancel := requestCtx(r.Context(), hc, req.DeadlineMS)
			p, err := s.Submit(ctx, input)
			if err != nil {
				cancel()
				_, kind := errorStatus(err)
				window = append(window, streamItem{err: err, kind: kind})
			} else {
				window = append(window, streamItem{p: p, cancel: cancel})
			}
		}
		if len(window) >= windowSize {
			emit(window[0])
			window = window[1:]
		}
	}
	switch err := lines.Err(); {
	case errors.Is(err, bufio.ErrTooLong):
		window = append(window, streamItem{err: fmt.Errorf("request line exceeds %d bytes", maxRequestBytes), kind: "bad_request"})
	case err != nil:
		window = append(window, streamItem{err: fmt.Errorf("reading stream: %w", err), kind: "bad_request"})
	}
	for _, it := range window {
		emit(it)
	}
}

// handleHealthz serves GET /healthz: 200 while serving, 503 while
// draining or with zero serveable replicas.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of
// every attached recorder — hardware counters (obs), pool lifecycle
// (fleet), image cache, and the serving tier itself — in fixed order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, hc HandlerConfig) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if hc.ObsRec != nil {
		if err := hc.ObsRec.Snapshot().WritePrometheus(w); err != nil {
			return
		}
	}
	if hc.FleetRec != nil {
		if err := hc.FleetRec.Stats().WritePrometheus(w); err != nil {
			return
		}
	}
	if hc.CacheRec != nil {
		if err := hc.CacheRec.Stats().WritePrometheus(w); err != nil {
			return
		}
	}
	if s.rec != nil {
		_ = s.rec.Stats().WritePrometheus(w) // last writer; nothing downstream
	}
}
