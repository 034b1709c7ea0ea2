package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"swsm/internal/server/api"
)

// TestRequestBodiesBounded pins the admission edge of every JSON POST,
// on a daemon and on a coordinator: a body over maxBodyBytes gets 413;
// an empty or truncated body, or one with bytes after its JSON value,
// gets 400.  None may panic the handler or admit anything.
func TestRequestBodiesBounded(t *testing.T) {
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	run := api.RunRequest{Spec: tinySpec(2)}
	valid := map[string]string{
		"/runs":             mustJSON(run),
		"/sweeps":           mustJSON(api.SweepRequest{Points: []api.RunRequest{run}}),
		"/explore":          mustJSON(exploreReq()),
		"/cluster/join":     mustJSON(api.ClusterJoinRequest{WorkerID: "w", Slots: 1}),
		"/cluster/lease":    mustJSON(api.ClusterLeaseRequest{WorkerID: "w", Slots: 1, Max: 4}),
		"/cluster/complete": mustJSON(api.ClusterCompleteRequest{WorkerID: "w", JobID: "j1"}),
	}
	oversized := `{"points":[` + strings.Repeat(" ", maxBodyBytes) + `]}`
	for _, mode := range []struct {
		name  string
		cfg   Config
		paths []string
	}{
		{"daemon", Config{Parallel: 1}, []string{"/runs", "/sweeps", "/explore"}},
		{"coordinator", Config{Coordinator: &CoordinatorConfig{}},
			[]string{"/runs", "/sweeps", "/explore", "/cluster/join", "/cluster/lease", "/cluster/complete"}},
	} {
		s, ts, c := newTestServer(t, mode.cfg)
		for _, path := range mode.paths {
			body := valid[path]
			for _, tc := range []struct {
				name, body string
				want       int
			}{
				{"oversized", oversized, http.StatusRequestEntityTooLarge},
				{"truncated", body[:len(body)/2], http.StatusBadRequest},
				{"trailing", body + `{}`, http.StatusBadRequest},
				{"empty", "", http.StatusBadRequest},
			} {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatalf("%s POST %s (%s): %v", mode.name, path, tc.name, err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("%s POST %s (%s) = %d, want %d", mode.name, path, tc.name, resp.StatusCode, tc.want)
				}
			}
		}
		runs, err := http.Get(ts.URL + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		var listed bytes.Buffer
		listed.ReadFrom(runs.Body)
		runs.Body.Close()
		if got := strings.TrimSpace(listed.String()); got != "[]" {
			t.Errorf("%s admitted jobs from bad bodies: %s", mode.name, got)
		}
		if m, err := c.Metrics(context.Background()); err != nil || len(m.Jobs) != 0 {
			t.Errorf("%s job counts after bad bodies = %v (err %v), want none", mode.name, m.Jobs, err)
		}
		if n := len(s.explores); n != 0 {
			t.Errorf("%s started %d explorations from bad bodies", mode.name, n)
		}
		if s.disp != nil && len(s.ClusterStatus().Workers) != 0 {
			t.Errorf("%s registered workers from bad bodies: %+v", mode.name, s.ClusterStatus().Workers)
		}
	}
}
