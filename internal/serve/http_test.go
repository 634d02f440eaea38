package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func testHandler(t *testing.T, cfg Config, hc HandlerConfig) (*Server, http.Handler) {
	t.Helper()
	s, _ := newTestServer(t, cfg, 2, 10)
	return s, s.Handler(hc)
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPInfer(t *testing.T) {
	_, h := testHandler(t, Config{BatchSize: 2, QueueDepth: 8}, HandlerConfig{})
	imgs := serveImages(t, 1)
	want := goldenRuns(t, imgs, 10)
	w := postJSON(t, h, "/v1/infer", InferRequest{Input: imgs[0].Data()})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp InferResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Prediction != want[0].Prediction {
		t.Fatalf("prediction %d, want %d", resp.Prediction, want[0].Prediction)
	}
	if len(resp.Output) != len(want[0].Output.Data()) {
		t.Fatalf("output size %d, want %d", len(resp.Output), len(want[0].Output.Data()))
	}
	if resp.BatchFill < 1 {
		t.Fatalf("batch fill %d, want >= 1", resp.BatchFill)
	}
}

func TestHTTPInferBadRequest(t *testing.T) {
	_, h := testHandler(t, Config{}, HandlerConfig{})
	for name, body := range map[string]InferRequest{
		"empty":     {},
		"bad-shape": {Input: []float64{1, 2, 3}, Shape: []int{2, 2}},
		"zero-dim":  {Input: []float64{1}, Shape: []int{0}},
		// 3 × 6148914691236517206 wraps to 2 in 64-bit arithmetic.
		"overflowing-shape": {Input: []float64{0.5, 0.5}, Shape: []int{3, 6148914691236517206}},
	} {
		w := postJSON(t, h, "/v1/infer", body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", name, w.Code, w.Body.String())
		}
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != "bad_request" {
			t.Fatalf("%s: kind %q, want bad_request", name, e.Kind)
		}
		// The stream endpoint answers the same request line with an
		// inline bad_request (its HTTP status is committed to 200 before
		// the first line is read).
		w = postJSON(t, h, "/v1/infer/stream", body)
		e = ErrorResponse{}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: stream answer %q: %v", name, w.Body.String(), err)
		}
		if w.Code != http.StatusOK || e.Kind != "bad_request" {
			t.Fatalf("%s: stream status %d kind %q, want an inline bad_request", name, w.Code, e.Kind)
		}
	}
	// Method mapping.
	req := httptest.NewRequest(http.MethodGet, "/v1/infer", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer: status %d, want 405", w.Code)
	}
}

// TestHTTPWrongLengthInput: a well-formed request whose input length the
// model does not accept is answered 400 bad_request on /v1/infer and with
// an inline bad_request on /v1/infer/stream, and leaves every replica in
// routing.
func TestHTTPWrongLengthInput(t *testing.T) {
	s, pool := newTestServer(t, Config{BatchSize: 2, QueueDepth: 8}, 2, 10)
	h := s.Handler(HandlerConfig{})
	bad := InferRequest{Input: make([]float64, 7)}

	w := postJSON(t, h, "/v1/infer", bad)
	var e ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusBadRequest || e.Kind != "bad_request" {
		t.Fatalf("infer: status %d kind %q (%s), want 400 bad_request", w.Code, e.Kind, e.Error)
	}
	if st := pool.Stats(); st.Healthy != st.Replicas {
		t.Fatalf("after a bad infer request: %+v, want every replica healthy", st)
	}

	w = postJSON(t, h, "/v1/infer/stream", bad)
	e = ErrorResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("stream answer %q: %v", w.Body.String(), err)
	}
	if w.Code != http.StatusOK || e.Kind != "bad_request" {
		t.Fatalf("stream: status %d kind %q (%s), want an inline bad_request", w.Code, e.Kind, e.Error)
	}
	if st := pool.Stats(); st.Healthy != st.Replicas {
		t.Fatalf("after a bad stream request: %+v, want every replica healthy", st)
	}

	w = postJSON(t, h, "/v1/infer", InferRequest{Input: serveImages(t, 1)[0].Data()})
	if w.Code != http.StatusOK {
		t.Fatalf("good request after bad ones: status %d, body %s", w.Code, w.Body.String())
	}
}

func TestHTTPStream(t *testing.T) {
	_, h := testHandler(t, Config{BatchSize: 4, MaxDelay: 10 * time.Millisecond, QueueDepth: 16}, HandlerConfig{})
	imgs := serveImages(t, 3)
	want := goldenRuns(t, imgs, 10)
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, img := range imgs {
		if err := enc.Encode(InferRequest{Input: img.Data()}); err != nil {
			t.Fatal(err)
		}
	}
	// A malformed line mid-stream must not break the stream's order.
	req := httptest.NewRequest(http.MethodPost, "/v1/infer/stream", &in)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != len(imgs) {
		t.Fatalf("%d response lines, want %d: %q", len(lines), len(imgs), lines)
	}
	for i, line := range lines {
		var resp InferResponse
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if resp.Prediction != want[i].Prediction {
			t.Fatalf("line %d: prediction %d, want %d (stream order broken)", i, resp.Prediction, want[i].Prediction)
		}
	}
}

// TestHTTPStreamOversizedLine: a request line longer than the body cap
// is answered with an inline bad_request after the lines before it and
// ends the stream; nothing after it is admitted.
func TestHTTPStreamOversizedLine(t *testing.T) {
	_, h := testHandler(t, Config{BatchSize: 4, MaxDelay: 10 * time.Millisecond, QueueDepth: 16}, HandlerConfig{})
	imgs := serveImages(t, 2)
	want := goldenRuns(t, imgs, 10)
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	if err := enc.Encode(InferRequest{Input: imgs[0].Data()}); err != nil {
		t.Fatal(err)
	}
	in.WriteString(`{"input":[`)
	in.Write(bytes.Repeat([]byte("0,"), maxRequestBytes/2))
	in.WriteString("0]}\n")
	if err := enc.Encode(InferRequest{Input: imgs[1].Data()}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/infer/stream", &in)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d response lines, want 2 (the stream must end at the oversized line): %q", len(lines), lines)
	}
	var resp InferResponse
	if err := json.Unmarshal([]byte(lines[0]), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Prediction != want[0].Prediction {
		t.Fatalf("line 0: prediction %d, want %d", resp.Prediction, want[0].Prediction)
	}
	var e ErrorResponse
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "bad_request" {
		t.Fatalf("oversized line: kind %q, want bad_request (%s)", e.Kind, e.Error)
	}
}

func TestHTTPHealthzAndDrain(t *testing.T) {
	s, h := testHandler(t, Config{}, HandlerConfig{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthy server: status %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	var hr HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Pool.Healthy != 2 {
		t.Fatalf("health %+v, want ok with 2 healthy", hr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server: status %d, want 503", w.Code)
	}
	// Admission during drain maps to 503 with the typed kind.
	imgs := serveImages(t, 1)
	iw := postJSON(t, h, "/v1/infer", InferRequest{Input: imgs[0].Data()})
	if iw.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain infer: status %d, want 503", iw.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(iw.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "draining" {
		t.Fatalf("drain infer kind %q, want draining", e.Kind)
	}
}

func TestHTTPMetrics(t *testing.T) {
	rec := obs.NewServeRecorder()
	s, h := testHandler(t, Config{Rec: rec}, HandlerConfig{FleetRec: nil})
	imgs := serveImages(t, 1)
	if _, err := s.Infer(context.Background(), imgs[0]); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	for _, series := range []string{
		"nebula_serve_requests_admitted_total 1",
		"nebula_serve_requests_served_total 1",
		"nebula_serve_batches_total 1",
		"nebula_serve_batch_fill_bucket",
		"nebula_serve_queue_depth 0",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q:\n%s", series, body)
		}
	}
}

func TestErrorStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		kind   string
	}{
		{ErrQueueFull, http.StatusTooManyRequests, "queue_full"},
		{ErrDraining, http.StatusServiceUnavailable, "draining"},
		{&DeadlineError{Stage: StageQueued, Err: context.DeadlineExceeded}, http.StatusGatewayTimeout, "deadline_queued"},
		{&DeadlineError{Stage: StageRunning, Err: context.Canceled}, http.StatusGatewayTimeout, "deadline_running"},
		{fleet.ErrExhausted, http.StatusServiceUnavailable, "exhausted"},
		{fmt.Errorf("fleet: batch input 3: %w", &arch.InputError{Len: 7, Want: 256}), http.StatusBadRequest, "bad_request"},
	} {
		status, kind := errorStatus(tc.err)
		if status != tc.status || kind != tc.kind {
			t.Fatalf("errorStatus(%v) = (%d, %q), want (%d, %q)", tc.err, status, kind, tc.status, tc.kind)
		}
	}
}
