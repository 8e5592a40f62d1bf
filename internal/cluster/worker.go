package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"memreliability/internal/estimator"
	"memreliability/internal/obs"
)

// ErrBadRequest reports a malformed or invalid worker request.
var ErrBadRequest = errors.New("cluster: bad request")

// MaxCellBatchBytes bounds a cell batch on the wire, both ways: a
// worker reads no further into a request body (a longer one fails to
// decode, 400), and the coordinator no further into a worker's
// response.
const MaxCellBatchBytes = 16 << 20

// WorkerConfig tunes a worker. The zero value gets sensible defaults.
type WorkerConfig struct {
	// Workers bounds each cell's internal Monte Carlo parallelism
	// (estimator.Exec.Workers); 0 means GOMAXPROCS. Pure scheduling —
	// results never depend on it.
	Workers int
}

// worker metrics, on the engine registry so a worker process exposes
// them at its own /metrics/prom.
var (
	workerCells = obs.Default().Counter("cluster_worker_cells_total",
		"Cells computed by this worker process.")
	workerBatches = obs.Default().Counter("cluster_worker_batches_total",
		"Cell batch requests served by this worker process.")
)

// NewWorker returns the worker-mode HTTP handler: the /v1/cells
// estimation endpoint plus liveness and metrics. Workers are stateless
// — every request carries the full canonical query and substream seed,
// and results are deterministic in them, so any worker can compute any
// cell and a killed worker's cells can be replayed anywhere.
func NewWorker(cfg WorkerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok","role":"worker"}`)
	})
	mux.HandleFunc("GET /metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w)
	})
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		handleCells(w, r, cfg)
	})
	return mux
}

// handleCells validates and executes one batch of cells. Validation
// failures are the client's fault (400, permanent — the coordinator
// must not retry them elsewhere), a body over MaxCellBatchBytes
// included; execution failures are this worker's (500, retryable on a
// surviving worker).
func handleCells(w http.ResponseWriter, r *http.Request, cfg WorkerConfig) {
	var req cellsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxCellBatchBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeWorkerError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if len(req.Cells) == 0 {
		writeWorkerError(w, http.StatusBadRequest, fmt.Errorf("%w: empty cell batch", ErrBadRequest))
		return
	}
	resp := cellsResponse{Results: make([]cellResultWire, 0, len(req.Cells))}
	for _, c := range req.Cells {
		norm := c.Query.Normalized()
		if err := norm.Validate(); err != nil {
			writeWorkerError(w, http.StatusBadRequest, fmt.Errorf("cell %d: %w", c.Index, err))
			return
		}
		// Exec is pure scheduling; Timing stays off because elapsed_ms
		// would break the artifact's byte-identity contract.
		res, err := estimator.Run(r.Context(), norm, c.Seed,
			estimator.Exec{Workers: cfg.Workers})
		if err != nil {
			writeWorkerError(w, http.StatusInternalServerError, fmt.Errorf("cell %d: %w", c.Index, err))
			return
		}
		workerCells.Inc()
		resp.Results = append(resp.Results, cellResultWire{Index: c.Index, Result: res})
	}
	workerBatches.Inc()
	data, err := json.Marshal(resp)
	if err != nil {
		writeWorkerError(w, http.StatusInternalServerError, fmt.Errorf("cluster: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// writeWorkerError writes the uniform JSON error envelope.
func writeWorkerError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{err.Error()})
	w.Write(append(data, '\n'))
}
