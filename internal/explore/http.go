package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The /explore HTTP surface, mounted by svmd (daemon or coordinator)
// over its Manager.  Status-code mapping mirrors the run API:
// 429 + Retry-After at the concurrency limit (explicit backpressure),
// 503 for a shut-down or draining service, 400 for a bad request.

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "", "0", "false":
		return false
	}
	return true
}

// HandleSubmit serves POST /explore.  ?wait=1 blocks until the
// exploration finishes (or the request context ends) and answers 200;
// otherwise the initial running status answers 202.
func (m *Manager) HandleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	st, err := m.Submit(req)
	if err != nil {
		switch {
		case errors.Is(err, ErrLimit):
			w.Header().Set("Retry-After", "5")
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrClosed), errors.Is(err, ErrUnavailable):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if !wantWait(r) {
		writeJSON(w, http.StatusAccepted, st)
		return
	}
	st, err = m.Wait(r.Context(), st.ID)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusOK
	if st.State == StateRunning {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

// HandleList serves GET /explore.
func (m *Manager) HandleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

// HandleGet serves GET /explore/{id} (?wait=1 blocks until terminal).
func (m *Manager) HandleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st *Status
	var err error
	if wantWait(r) {
		st, err = m.Wait(r.Context(), id)
	} else {
		st, err = m.Get(id)
	}
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// HandleCancel serves DELETE /explore/{id}.
func (m *Manager) HandleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// HandleFrontierCSV serves GET /explore/{id}/frontier — the current
// Pareto frontier in the same CSV shape svmbench -explore -csv writes.
func (m *Manager) HandleFrontierCSV(w http.ResponseWriter, r *http.Request) {
	st, err := m.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	WriteFrontierCSV(w, st.Frontier)
}
