package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/obs"
)

// newObsServer boots a daemon with a fast self-observability sampler
// and a data dir, for end-to-end alert/history/profile tests.
func newObsServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot:       dir + "/perflogs",
		InstallTree:       dir + "/install",
		Workers:           1,
		QueueDepth:        8,
		DataDir:           dataDir,
		SampleInterval:    20 * time.Millisecond,
		ProfileCooldown:   time.Millisecond,
		HistoryFlushEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // double-shutdown safe; tests may shut down early
	})
	return srv, ts
}

// sseAlerts reads alert lifecycle events from one /v1/watch connection
// into a channel until the stream ends.
func sseAlerts(t *testing.T, ctx context.Context, base string) <-chan eventbus.Event {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/watch?types=alert.fired,alert.resolved", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: %d", resp.StatusCode)
	}
	out := make(chan eventbus.Event, 64)
	go func() {
		defer resp.Body.Close()
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
			case line == "" && data != "":
				var ev eventbus.Event
				if json.Unmarshal([]byte(data), &ev) == nil {
					select {
					case out <- ev:
					case <-ctx.Done():
						return
					}
				}
				data = ""
			}
		}
	}()
	return out
}

func waitAlertEvent(t *testing.T, events <-chan eventbus.Event, typ string) eventbus.Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch stream ended before %s", typ)
			}
			if ev.Type == typ {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %s event within deadline", typ)
		}
	}
}

// TestObsAlertFiresOnWatchWithProfiles is the issue's acceptance path:
// a synthetic threshold breach fires alert.fired on /v1/watch carrying
// profile ids, the pprof artifact is retrievable over HTTP, and
// deleting the rule publishes the matching alert.resolved.
func TestObsAlertFiresOnWatchWithProfiles(t *testing.T) {
	srv, ts := newObsServer(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := sseAlerts(t, ctx, ts.URL)
	for start := time.Now(); srv.Bus().Subscribers() == 0; {
		if time.Since(start) > 10*time.Second {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// queue_depth > -1 is always true: the rule breaches on the next
	// sampler tick and, with for=0, fires immediately.
	var rule obs.RuleStatus
	code := postJSON(t, ts.URL+"/v1/alerts",
		`{"name":"synthetic","metric":"benchd_queue_depth","kind":"threshold","op":"gt","value":-1}`, &rule)
	if code != http.StatusCreated {
		t.Fatalf("alert create: %d", code)
	}
	if rule.ID == "" || rule.State != obs.StateOK {
		t.Fatalf("created rule = %+v", rule)
	}

	fired := waitAlertEvent(t, events, eventbus.TypeAlertFired)
	if fired.Data["alert_id"] != rule.ID || fired.Data["metric"] != "benchd_queue_depth" {
		t.Fatalf("fired payload = %v", fired.Data)
	}
	profID := fired.Data["profile_0"]
	if profID == "" {
		t.Fatalf("fired event carries no profile id: %v", fired.Data)
	}

	// The rule now reports firing over CRUD.
	var got obs.RuleStatus
	if code := getJSON(t, ts.URL+"/v1/alerts/"+rule.ID, &got); code != http.StatusOK {
		t.Fatalf("alert get: %d", code)
	}
	if got.State != obs.StateFiring || got.Fires < 1 {
		t.Fatalf("rule status = %+v, want firing", got)
	}
	var list struct {
		Count  int `json:"count"`
		Firing int `json:"firing"`
	}
	getJSON(t, ts.URL+"/v1/alerts", &list)
	if list.Count != 1 || list.Firing != 1 {
		t.Fatalf("alert list = %+v", list)
	}

	// The captured profile is listed and its bytes retrievable.
	var profs struct {
		Profiles []obs.ProfileInfo `json:"profiles"`
		Count    int               `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/profiles", &profs); code != http.StatusOK || profs.Count == 0 {
		t.Fatalf("profiles list: code=%d %+v", code, profs)
	}
	resp, err := http.Get(ts.URL + "/v1/profiles/" + profID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("profile fetch: %d, %d bytes", resp.StatusCode, len(body))
	}
	if kind := resp.Header.Get("X-Profile-Kind"); kind != "heap" && kind != "goroutine" {
		t.Fatalf("profile kind header = %q", kind)
	}

	// healthz carries the observability block.
	var health struct {
		Observability struct {
			Series  int    `json:"series"`
			Samples uint64 `json:"samples"`
			Firing  int    `json:"alerts_firing"`
		} `json:"observability"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Observability.Series == 0 || health.Observability.Samples == 0 || health.Observability.Firing != 1 {
		t.Fatalf("healthz observability = %+v", health.Observability)
	}

	// Deleting the firing rule publishes its terminal resolve.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/alerts/"+rule.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("alert delete: %d", dresp.StatusCode)
	}
	resolved := waitAlertEvent(t, events, eventbus.TypeAlertResolved)
	if resolved.Data["alert_id"] != rule.ID || resolved.Data["reason"] != obs.ResolveDeleted {
		t.Fatalf("resolved payload = %v", resolved.Data)
	}
}

func TestObsAlertValidationAndNotFound(t *testing.T) {
	_, ts := newObsServer(t, "")
	var errBody struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/alerts",
		`{"metric":"x","kind":"spike"}`, &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad rule accepted: %d", code)
	}
	if errBody.Error == "" {
		t.Fatal("400 without error body")
	}
	if code := getJSON(t, ts.URL+"/v1/alerts/alert-999999", nil); code != http.StatusNotFound {
		t.Fatalf("missing alert get: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/alerts/alert-999999", nil)
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing alert delete: %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/profiles/prof-999999-heap", nil); code != http.StatusNotFound {
		t.Fatalf("missing profile: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/history?name=no_such_series", nil); code != http.StatusNotFound {
		t.Fatalf("missing series: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/history?name=x&since=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad since: %d", code)
	}
}

// TestObsHistoryEndpointServesSampledSeries: the live sampler populates
// /v1/metrics/history — both the name listing and per-series points.
func TestObsHistoryEndpointServesSampledSeries(t *testing.T) {
	srv, ts := newObsServer(t, "")
	// Wait for a few sampler ticks.
	for start := time.Now(); srv.obs.Stats().Samples < 3; {
		if time.Since(start) > 10*time.Second {
			t.Fatal("sampler never ticked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var listing struct {
		Series    []string `json:"series"`
		Count     int      `json:"count"`
		IntervalS float64  `json:"interval_s"`
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/history", &listing); code != http.StatusOK {
		t.Fatalf("listing: %d", code)
	}
	found := false
	for _, name := range listing.Series {
		if name == "benchd_queue_depth" {
			found = true
		}
	}
	if !found || listing.IntervalS != 0.02 {
		t.Fatalf("listing = %+v", listing)
	}
	var hist struct {
		Name   string      `json:"name"`
		Points []obs.Point `json:"points"`
		Count  int         `json:"count"`
		StepS  float64     `json:"step_s"`
	}
	if code := getJSON(t, ts.URL+"/v1/metrics/history?name=benchd_queue_depth&since=10m", &hist); code != http.StatusOK {
		t.Fatalf("series: %d", code)
	}
	if hist.Count < 3 || len(hist.Points) != hist.Count || hist.StepS != 0.02 {
		t.Fatalf("history = count %d, step %g", hist.Count, hist.StepS)
	}
	// go_goroutines (runtime scrape) is also served.
	if code := getJSON(t, ts.URL+"/v1/metrics/history?name=go_goroutines", &hist); code != http.StatusOK || hist.Count == 0 {
		t.Fatalf("runtime series: code=%d count=%d", code, hist.Count)
	}
}

// TestObsHistoryAndAlertsSurviveReboot: the acceptance criterion —
// stop a daemon, boot a fresh one on the same data dir, and both the
// metric history and the alert rules are served from the first boot's
// life.
func TestObsHistoryAndAlertsSurviveReboot(t *testing.T) {
	dataDir := t.TempDir()
	srv1, ts1 := newObsServer(t, dataDir)
	var rule obs.RuleStatus
	if code := postJSON(t, ts1.URL+"/v1/alerts",
		`{"name":"keeper","metric":"benchd_queue_depth","kind":"threshold","op":"gt","value":1e9,"for":"1h"}`, &rule); code != http.StatusCreated {
		t.Fatalf("alert create: %d", code)
	}
	for start := time.Now(); srv1.obs.Stats().Samples < 5; {
		if time.Since(start) > 10*time.Second {
			t.Fatal("sampler never ticked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	preSamples := srv1.obs.Stats().Samples
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	_, ts2 := newObsServer(t, dataDir)
	var hist struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts2.URL+"/v1/metrics/history?name=benchd_queue_depth", &hist); code != http.StatusOK {
		t.Fatalf("post-reboot history: %d", code)
	}
	if hist.Count < int(preSamples) {
		t.Fatalf("post-reboot history has %d points, first life sampled %d", hist.Count, preSamples)
	}
	var got obs.RuleStatus
	if code := getJSON(t, ts2.URL+"/v1/alerts/"+rule.ID, &got); code != http.StatusOK {
		t.Fatalf("post-reboot alert: %d", code)
	}
	if got.Name != "keeper" || got.State != obs.StateOK {
		t.Fatalf("post-reboot rule = %+v", got)
	}
}

// TestShutdownResolvesFiringAlerts: an alert fired by the daemon's own
// sampler loop is published as resolved (reason shutdown) before the
// terminal server.shutdown event, so no watcher's last view is a
// dangling fire.
func TestShutdownResolvesFiringAlerts(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot:     dir + "/perflogs",
		InstallTree:     dir + "/install",
		Workers:         1,
		SampleInterval:  10 * time.Millisecond,
		ProfileCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Bus().Subscribe([]string{
		eventbus.TypeAlertFired, eventbus.TypeAlertResolved, eventbus.TypeServerShutdown,
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.obs.AddRule(obs.Rule{
		Metric: "benchd_queue_depth", Kind: obs.KindThreshold, Op: obs.OpGT, Value: -1,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if ev, err := sub.Next(ctx); err != nil || ev.Type != eventbus.TypeAlertFired {
		t.Fatalf("first event = %+v, %v", ev, err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The resolve must arrive, with reason shutdown, strictly before the
	// terminal event.
	var seq []string
	var reason string
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			break // bus closed after the terminal event
		}
		seq = append(seq, ev.Type)
		if ev.Type == eventbus.TypeAlertResolved {
			reason = ev.Data["reason"]
		}
		if ev.Type == eventbus.TypeServerShutdown {
			break
		}
	}
	want := []string{eventbus.TypeAlertResolved, eventbus.TypeServerShutdown}
	if len(seq) != 2 || seq[0] != want[0] || seq[1] != want[1] {
		t.Fatalf("event sequence = %v, want %v", seq, want)
	}
	if reason != obs.ResolveShutdown {
		t.Fatalf("resolve reason = %q, want shutdown", reason)
	}
}
