package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	r := NewRegistry()
	if r.Armed() {
		t.Fatal("empty registry reports armed")
	}
	for i := 0; i < 100; i++ {
		if err := r.Fire("anything"); err != nil {
			t.Fatalf("disarmed fire returned %v", err)
		}
	}
}

func TestErrorRuleGates(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindError, After: 2, Times: 2}}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 10; i++ {
		if err := r.Fire("p"); err != nil {
			fired = append(fired, i)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("call %d: not a *Fault: %v", i, err)
			}
			if !f.Transient() {
				t.Fatalf("call %d: default fault should be transient", i)
			}
			if !Is(err) {
				t.Fatalf("call %d: Is() false for %v", i, err)
			}
		}
	}
	if fmt.Sprint(fired) != "[3 4]" {
		t.Fatalf("after=2 times=2 fired on calls %v, want [3 4]", fired)
	}
}

func TestEveryGate(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindError, Every: 3}}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 9; i++ {
		if r.Fire("p") != nil {
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[3 6 9]" {
		t.Fatalf("every=3 fired on calls %v, want [3 6 9]", fired)
	}
}

func TestPermanentFault(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindError, Permanent: true, Msg: "disk gone"}}); err != nil {
		t.Fatal(err)
	}
	err := r.Fire("p")
	var f *Fault
	if !errors.As(err, &f) || f.Transient() {
		t.Fatalf("want permanent fault, got %v", err)
	}
	if !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("msg not carried: %v", err)
	}
}

// TestSameSeedSameSequence is the reproducibility contract the chaos
// harness depends on: for a serial caller, the set of call indices that
// fault is a pure function of (seed, schedule).
func TestSameSeedSameSequence(t *testing.T) {
	sequence := func(seed int64) []int {
		r := NewRegistry()
		if err := r.Load(seed, []Rule{{Point: "p", Kind: KindError, Rate: 0.3}}); err != nil {
			t.Fatal(err)
		}
		var fired []int
		for i := 1; i <= 200; i++ {
			if r.Fire("p") != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := sequence(42), sequence(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("rate=0.3 fired %d/200 times; gating broken", len(a))
	}
	c := sequence(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestDelayRuleRespectsContext(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindDelay, Delay: 10 * time.Second}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := r.FireContext(ctx, "p")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

func TestDelayRuleSleepsThenProceeds(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindDelay, Delay: 5 * time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Fire("p"); err != nil {
		t.Fatalf("delay rule returned error %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay did not sleep")
	}
}

func TestShortReader(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindShort, Bytes: 4, Times: 1}}); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r.Reader("p", strings.NewReader("hello world")))
	if err != nil || string(got) != "hell" {
		t.Fatalf("short reader gave %q, %v; want \"hell\"", got, err)
	}
	// times=1 exhausted: the stream is whole again.
	got, err = io.ReadAll(r.Reader("p", strings.NewReader("hello world")))
	if err != nil || string(got) != "hello world" {
		t.Fatalf("second read gave %q, %v", got, err)
	}
}

// Short rules must not consume error/delay decisions and vice versa:
// Fire skips "short" rules, Reader skips "error" rules.
func TestKindsAreIndependent(t *testing.T) {
	r := NewRegistry()
	err := r.Load(1, []Rule{
		{Point: "p", Kind: KindShort, Bytes: 1},
		{Point: "p", Kind: KindError, Times: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fire("p"); err == nil {
		t.Fatal("error rule did not fire through Fire despite preceding short rule")
	}
}

func TestParseSchedule(t *testing.T) {
	rules, err := ParseSchedule(
		"scheduler.submit:error:rate=0.25:times=3, buildsys.install:error:after=1," +
			"perfstore.read:short:bytes=64:every=5,perflog.sync:delay:d=50ms:msg=slow disk,x:error:permanent=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 5 {
		t.Fatalf("parsed %d rules, want 5", len(rules))
	}
	if rules[0].Rate != 0.25 || rules[0].Times != 3 || rules[0].Point != "scheduler.submit" {
		t.Fatalf("rule 0 mis-parsed: %+v", rules[0])
	}
	if rules[2].Kind != KindShort || rules[2].Bytes != 64 || rules[2].Every != 5 {
		t.Fatalf("rule 2 mis-parsed: %+v", rules[2])
	}
	if rules[3].Delay != 50*time.Millisecond || rules[3].Msg != "slow disk" {
		t.Fatalf("rule 3 mis-parsed: %+v", rules[3])
	}
	if !rules[4].Permanent {
		t.Fatalf("rule 4 mis-parsed: %+v", rules[4])
	}
	for _, bad := range []string{"nokind", "p:badkind", "p:error:rate=x", "p:error:wat=1", "p:error:noeq"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestLoadRejectsBadRules(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Kind: KindError}}); err == nil {
		t.Error("rule without point accepted")
	}
	if err := r.Load(1, []Rule{{Point: "p", Kind: "nope"}}); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindError, Rate: 1.5}}); err == nil {
		t.Error("rate out of range accepted")
	}
}

func TestLoadEnv(t *testing.T) {
	env := map[string]string{
		EnvSchedule: "p:error:times=1",
		EnvSeed:     "7",
	}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	if err := LoadEnv(lookup); err != nil {
		t.Fatal(err)
	}
	defer Reset()
	if !Armed() {
		t.Fatal("LoadEnv did not arm the default registry")
	}
	if err := Fire("p"); err == nil {
		t.Fatal("armed point did not fire")
	}
	if err := Fire("p"); err != nil {
		t.Fatalf("times=1 exhausted but fired again: %v", err)
	}
	Reset()
	if err := LoadEnv(func(string) (string, bool) { return "", false }); err != nil {
		t.Fatalf("no-op LoadEnv errored: %v", err)
	}
	if Armed() {
		t.Fatal("no-op LoadEnv armed the registry")
	}
	env[EnvSeed] = "notanint"
	if err := LoadEnv(lookup); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestPointsListing(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{
		{Point: "b", Kind: KindError},
		{Point: "a", Kind: KindDelay, Delay: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(r.Points()); got != "[a b]" {
		t.Fatalf("Points() = %v", got)
	}
	r.Load(0, nil)
	if r.Armed() || len(r.Points()) != 0 {
		t.Fatal("loading no rules did not disarm")
	}
}

// Concurrent firing must be race-clean and respect Times exactly.
func TestConcurrentFireRespectsTimes(t *testing.T) {
	r := NewRegistry()
	if err := r.Load(1, []Rule{{Point: "p", Kind: KindError, Times: 25}}); err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	errs := make(chan error, goroutines*per)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				errs <- r.Fire("p")
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(errs)
	fired := 0
	for err := range errs {
		if err != nil {
			fired++
		}
	}
	if fired != 25 {
		t.Fatalf("times=25 fired %d times under concurrency", fired)
	}
}
