package main

import (
	"errors"
	"net/http"
	"testing"
)

func TestClassifyAgainstExpectedOutcome(t *testing.T) {
	cases := []struct {
		name   string
		status int
		err    error
		expect []int
		failed bool
	}{
		{"accepted as expected", http.StatusAccepted, nil, []int{statusAccepted}, false},
		{"stale reply a session retries", http.StatusConflict, nil, []int{statusAccepted, statusStale}, false},
		{"quarantine a poisoned upload expects", http.StatusUnprocessableEntity, nil, []int{statusQuarantined}, false},
		{"clean upload quarantined", http.StatusUnprocessableEntity, nil, []int{statusAccepted}, true},
		{"throttled is unexpected", http.StatusTooManyRequests, nil, []int{statusAccepted, statusStale}, true},
		{"gone after close is unexpected", http.StatusGone, nil, []int{statusAccepted}, true},
		{"server error", http.StatusServiceUnavailable, nil, []int{statusAccepted}, true},
		{"transport error", 0, errors.New("connection reset"), []int{statusAccepted}, true},
		{"transport error beats a status", http.StatusAccepted, errors.New("short body"), []int{statusAccepted}, true},
		{"unexpected success code", http.StatusOK, nil, []int{statusAccepted}, true},
	}
	for _, c := range cases {
		failed, why := classify(c.status, c.err, c.expect...)
		if failed != c.failed {
			t.Errorf("%s: failed=%v (%s), want %v", c.name, failed, why, c.failed)
		}
		if failed && why == "" {
			t.Errorf("%s: failure without a reason", c.name)
		}
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var a, b tally
	for i := 0; i < 8; i++ {
		a.add(i%4 == 0, "boom")
	}
	b.add(true, "late")
	b.add(false, "")
	a.merge(b)
	if a.attempted != 10 || a.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 10 and 3", a.attempted, a.failed)
	}
	if f := a.failedFrac(); f != 0.3 {
		t.Fatalf("failed_frac=%v, want 0.3", f)
	}
	if len(a.reasons) != 3 {
		t.Fatalf("reasons %v, want three", a.reasons)
	}
}
