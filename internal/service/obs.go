package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Self-observability wiring: the obs.Observer samples the daemon's own
// telemetry registry, evaluates alert rules, and captures profiles;
// this file is its HTTP surface (alert CRUD, metric history, profile
// fetch) and the alert-rule persistence that mirrors the schedule
// registry's.

// alertsFile is the alert-rule registry's on-disk name under
// Config.DataDir (see loadRegistry).
const alertsFile = "alerts.json"

// loadAlerts restores the persisted alert rules at boot.
func (s *Server) loadAlerts() error {
	var rules []obs.Rule
	if ok, err := s.loadRegistry(alertsFile, &rules); !ok {
		return err
	}
	s.obs.RestoreRules(rules)
	if len(rules) > 0 {
		s.cfg.Logger.Info("alert rules restored", "count", len(rules), "path", filepath.Join(s.cfg.DataDir, alertsFile))
	}
	return nil
}

// saveAlerts replaces the rule registry with the engine's current
// snapshot.
func (s *Server) saveAlerts() error {
	return s.saveRegistry(alertsFile, func() any { return s.obs.SnapshotRules() })
}

// persistAlerts saves and logs rather than failing the caller, matching
// persistSchedules.
func (s *Server) persistAlerts() {
	if err := s.saveAlerts(); err != nil {
		s.cfg.Logger.Error("alert persistence failed", "error", err.Error())
	}
}

func (s *Server) handleCreateAlert(w http.ResponseWriter, r *http.Request) {
	var rule obs.Rule
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rule); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	rule.ID = "" // ids are engine-assigned, never client-chosen
	st, err := s.obs.AddRule(rule)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.persistAlerts()
	w.Header().Set("Location", "/v1/alerts/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleListAlerts(w http.ResponseWriter, r *http.Request) {
	list := s.obs.Rules()
	firing := 0
	for _, st := range list {
		if st.State == obs.StateFiring {
			firing++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"alerts": list, "count": len(list), "firing": firing,
	})
}

func (s *Server) handleGetAlert(w http.ResponseWriter, r *http.Request) {
	st, ok := s.obs.Rule(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such alert %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeleteAlert(w http.ResponseWriter, r *http.Request) {
	if !s.obs.RemoveRule(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such alert %q", r.PathValue("id")))
		return
	}
	s.persistAlerts()
	w.WriteHeader(http.StatusNoContent)
}

// handleMetricsHistory serves GET /v1/metrics/history: the sampled
// time series behind /metrics. name= selects one series (canonical key,
// e.g. benchd_queue_depth or benchd_runs_total{status="completed"});
// without it the response lists the available series names. since= is
// RFC 3339 or a relative Go duration ("15m" = the last 15 minutes);
// step= requests a resolution and the response reports the actual tier
// step served.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	values := r.URL.Query()
	name := values.Get("name")
	if name == "" {
		names := s.obs.Names()
		writeJSON(w, http.StatusOK, map[string]any{
			"series": names, "count": len(names),
			"interval_s": s.obs.Interval().Seconds(),
		})
		return
	}
	var since time.Time
	if v := values.Get("since"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			since = time.Now().Add(-d)
		} else if t, terr := time.Parse(time.RFC3339, v); terr == nil {
			since = t
		} else {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("bad since %q (want RFC 3339 or a duration like 15m)", v))
			return
		}
	}
	var step time.Duration
	if v := values.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad step %q", v))
			return
		}
		step = d
	}
	pts, actual, ok := s.obs.History(name, since, step)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no history for series %q (see GET /v1/metrics/history for names)", name))
		return
	}
	if pts == nil {
		pts = []obs.Point{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":   name,
		"points": pts,
		"count":  len(pts),
		"step_s": actual.Seconds(),
	})
}

// handleListProfiles serves GET /v1/profiles: the retained
// alert-triggered pprof artifacts, oldest first.
func (s *Server) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	list := s.obs.Profiles()
	writeJSON(w, http.StatusOK, map[string]any{"profiles": list, "count": len(list)})
}

// handleGetProfile serves GET /v1/profiles/{id}: the raw pprof bytes
// (feed to `go tool pprof`). Metadata rides response headers so the
// body stays a valid profile.
func (s *Server) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, data, err := s.obs.Profile(id)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such profile %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.pprof", id))
	w.Header().Set("X-Profile-Kind", info.Kind)
	w.Header().Set("X-Profile-Alert", info.AlertID)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
