package main

import (
	"fmt"
	"net/http"
)

// classify checks one HTTP reply against the statuses the operation was
// expected to get. A transport error, a 5xx, an unexpected 4xx or any
// other status outside expect is a failure; why names which.
func classify(status int, err error, expect ...int) (failed bool, why string) {
	if err != nil {
		return true, "transport error: " + err.Error()
	}
	for _, s := range expect {
		if status == s {
			return false, ""
		}
	}
	switch {
	case status >= 500:
		return true, fmt.Sprintf("server error %d", status)
	case status >= 400:
		return true, fmt.Sprintf("unexpected client error %d", status)
	default:
		return true, fmt.Sprintf("unexpected status %d", status)
	}
}

// tally counts operations and failures, keeping the first few failure
// reasons for the report.
type tally struct {
	attempted, failed int64
	reasons           []string
}

func (t *tally) add(failed bool, why string) {
	t.attempted++
	if failed {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, why)
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// failedFrac is failures over attempts (0 with nothing attempted).
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// These name the replies the protocol defines for an
// upload, so expectations read as intent.
const (
	statusAccepted    = http.StatusAccepted
	statusStale       = http.StatusConflict
	statusQuarantined = http.StatusUnprocessableEntity
)
