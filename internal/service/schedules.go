package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cbsched"
	"repro/internal/concretize"
	"repro/internal/spec"
	"repro/internal/suite"
)

// schedulesFile is the schedule registry's on-disk name under
// Config.DataDir. Like the segment MANIFEST, it is replaced atomically
// (tmp + fsync + rename) so a crash mid-save leaves the previous
// registry intact and registered schedules always survive a reboot.
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
	sys, part, err := s.runner.Estate.Resolve(sp.System)
	if err != nil {
		return "", err
	}
	specText := b.BuildSpec()
	if sp.BuildSpec != "" {
		specText = sp.BuildSpec
	}
	abstract, err := spec.Parse(specText)
	if err != nil {
		return "", err
	}
	cfg := s.runner.Envs.ForSystem(sys.Name)
	conc, err := concretize.Concretize(abstract, cfg.ConcretizeOptions(s.runner.Repo, string(part.Processor.Arch)))
	if err != nil {
		return "", err
	}
	return conc.Spec.DAGHash(), nil
}

// schedulesPath returns the registry file path, or "" when the daemon
// has no data dir (schedules are then in-memory only and die with the
// process).
func (s *Server) schedulesPath() string {
	if s.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.DataDir, schedulesFile)
}

// loadSchedules restores the persisted registry at boot. A missing
// file is an empty registry; a corrupt one is surfaced (the operator
// should decide, not lose schedules silently).
func (s *Server) loadSchedules() error {
	path := s.schedulesPath()
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: schedules: %w", err)
	}
	var persisted []cbsched.Persisted
	if err := json.Unmarshal(data, &persisted); err != nil {
		return fmt.Errorf("service: schedules: parse %s: %w", path, err)
	}
	s.sched.Restore(persisted)
	if n := len(persisted); n > 0 {
		s.cfg.Logger.Info("schedules restored", "count", n, "path", path)
	}
	return nil
}

// saveSchedules atomically replaces the registry file with the
// scheduler's current snapshot. Serialized by persistMu so concurrent
// CRUD calls cannot interleave their tmp files.
func (s *Server) saveSchedules() error {
	path := s.schedulesPath()
	if path == "" {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	data, err := json.MarshalIndent(s.sched.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("service: schedules: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("service: schedules: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("service: schedules: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("service: schedules: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("service: schedules: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: schedules: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// persistSchedules saves and logs rather than failing the caller: a
// full disk must not take down the tick loop or a DELETE, but it must
// be visible.
func (s *Server) persistSchedules() {
	if err := s.saveSchedules(); err != nil {
		s.cfg.Logger.Error("schedule persistence failed", "error", err.Error())
	}
}

// validateScheduleTarget applies the same benchmark/system/spec checks
// a direct run submission gets, so a schedule can only be registered
// for work the daemon could actually execute.
func (s *Server) validateScheduleTarget(req *scheduleRequest) error {
	if req.Benchmark == "" || req.System == "" {
		return fmt.Errorf("benchmark and system are required")
	}
	if _, err := suite.ByName(req.Benchmark); err != nil {
		return err
	}
	if _, _, err := s.runner.Estate.Resolve(req.System); err != nil {
		return err
	}
	if req.Spec != "" {
		norm, err := suite.NormalizeModelSpec(req.Spec)
		if err != nil {
			return err
		}
		req.Spec = norm
	}
	if req.NumTasks < 0 || req.TasksPerNode < 0 || req.CPUsPerTask < 0 {
		return fmt.Errorf("layout overrides must be non-negative")
	}
	return nil
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
	if err := s.validateScheduleTarget(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sp := cbsched.Spec{
		Name:          req.Name,
		Benchmark:     req.Benchmark,
		System:        req.System,
		BuildSpec:     req.Spec,
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
