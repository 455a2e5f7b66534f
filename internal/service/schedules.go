package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/cbsched"
	"repro/internal/core"
	"repro/internal/suite"
)

// schedulesFile is the schedule registry's on-disk name under
// Config.DataDir (see loadRegistry).
const schedulesFile = "schedules.json"

// scheduleRequest is the POST /v1/schedules body. Every is a Go
// duration string ("30s", "5m").
type scheduleRequest struct {
	Name          string `json:"name,omitempty"`
	Benchmark     string `json:"benchmark"`
	System        string `json:"system"`
	Spec          string `json:"spec,omitempty"`
	NumTasks      int    `json:"num_tasks,omitempty"`
	TasksPerNode  int    `json:"tasks_per_node,omitempty"`
	CPUsPerTask   int    `json:"cpus_per_task,omitempty"`
	Every         string `json:"every,omitempty"`
	OnBuildChange bool   `json:"on_build_change,omitempty"`
}

// startScheduled is the cbsched Start callback: it submits through the
// same bounded worker pool as POST /v1/runs, so scheduled work and
// client work share one backpressure story. The schedule id rides on
// the run so completion flows back into the scheduler's state.
func (s *Server) startScheduled(sp cbsched.Spec) (string, error) {
	run, _, err := s.submit(SubmitRequest{
		Benchmark:    sp.Benchmark,
		System:       sp.System,
		Spec:         sp.BuildSpec,
		NumTasks:     sp.NumTasks,
		TasksPerNode: sp.TasksPerNode,
		CPUsPerTask:  sp.CPUsPerTask,
	}, sp.ID)
	if err != nil {
		return "", err
	}
	return run.ID, nil
}

// scheduleBuildHash is the cbsched Hash callback: resolve + concretize
// (no build, no run) to the DAG hash the benchmark would install with
// right now. This is the on-build-change trigger's probe — it matches
// the build_hash provenance the runner records in every perflog entry,
// so "fire when the hash differs from the last run's manifest hash" is
// an exact comparison, not a heuristic.
func (s *Server) scheduleBuildHash(sp cbsched.Spec) (string, error) {
	b, err := suite.ByName(sp.Benchmark)
	if err != nil {
		return "", err
	}
	conc, err := s.runner.Concretize(b, core.Options{System: sp.System, Spec: sp.BuildSpec})
	if err != nil {
		return "", err
	}
	return conc.Spec.DAGHash(), nil
}

// Schedules and alert rules persist the same way: one JSON file each
// under Config.DataDir, replaced with atomicfile.Write so a crash
// mid-save leaves the previous registry intact. Without a data dir they
// are in-memory only and die with the process.

// loadRegistry decodes the registry file name into v at boot. It
// reports false, leaving v alone, when there is no data dir or no file
// (an empty registry); a corrupt file is an error, because the operator
// should decide, not lose registrations silently.
func (s *Server) loadRegistry(name string, v any) (bool, error) {
	if s.cfg.DataDir == "" {
		return false, nil
	}
	what := strings.TrimSuffix(name, ".json")
	path := filepath.Join(s.cfg.DataDir, name)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("service: %s: %w", what, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("service: %s: parse %s: %w", what, path, err)
	}
	return true, nil
}

// saveRegistry replaces the registry file name with snapshot(). The
// snapshot is taken under persistMu, so concurrent CRUD calls land
// their snapshots in the order they took them.
func (s *Server) saveRegistry(name string, snapshot func() any) error {
	if s.cfg.DataDir == "" {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	data, err := json.MarshalIndent(snapshot(), "", "  ")
	if err == nil {
		err = atomicfile.Write(filepath.Join(s.cfg.DataDir, name), data, []byte{'\n'})
	}
	if err != nil {
		return fmt.Errorf("service: %s: %w", strings.TrimSuffix(name, ".json"), err)
	}
	return nil
}

// loadSchedules restores the persisted schedule registry at boot.
func (s *Server) loadSchedules() error {
	var persisted []cbsched.Persisted
	if ok, err := s.loadRegistry(schedulesFile, &persisted); !ok {
		return err
	}
	s.sched.Restore(persisted)
	if n := len(persisted); n > 0 {
		s.cfg.Logger.Info("schedules restored", "count", n, "path", filepath.Join(s.cfg.DataDir, schedulesFile))
	}
	return nil
}

// saveSchedules replaces the registry file with the scheduler's
// current snapshot.
func (s *Server) saveSchedules() error {
	return s.saveRegistry(schedulesFile, func() any { return s.sched.Snapshot() })
}

// persistSchedules saves and logs rather than failing the caller: a
// full disk must not take down the tick loop or a DELETE, but it must
// be visible.
func (s *Server) persistSchedules() {
	if err := s.saveSchedules(); err != nil {
		s.cfg.Logger.Error("schedule persistence failed", "error", err.Error())
	}
}

func (s *Server) handleCreateSchedule(w http.ResponseWriter, r *http.Request) {
	if s.degraded {
		// Read-only daemon: registering work that can never execute
		// would just accumulate failure streaks.
		writeUnavailable(w, errDegraded)
		return
	}
	var req scheduleRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// A schedule can only be registered for work a run submission
	// would accept.
	_, spec, err := s.checkTarget(req.Benchmark, req.System, req.Spec, req.NumTasks, req.TasksPerNode, req.CPUsPerTask)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sp := cbsched.Spec{
		Name:          req.Name,
		Benchmark:     req.Benchmark,
		System:        req.System,
		BuildSpec:     spec,
		NumTasks:      req.NumTasks,
		TasksPerNode:  req.TasksPerNode,
		CPUsPerTask:   req.CPUsPerTask,
		OnBuildChange: req.OnBuildChange,
	}
	if req.Every != "" {
		d, err := time.ParseDuration(req.Every)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad every %q: %w", req.Every, err))
			return
		}
		sp.Every = cbsched.Duration(d)
	}
	st, err := s.sched.Add(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.persistSchedules()
	w.Header().Set("Location", "/v1/schedules/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleListSchedules(w http.ResponseWriter, r *http.Request) {
	list := s.sched.List()
	writeJSON(w, http.StatusOK, map[string]any{"schedules": list, "count": len(list)})
}

func (s *Server) handleGetSchedule(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such schedule %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeleteSchedule(w http.ResponseWriter, r *http.Request) {
	if !s.sched.Remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such schedule %q", r.PathValue("id")))
		return
	}
	s.persistSchedules()
	w.WriteHeader(http.StatusNoContent)
}
