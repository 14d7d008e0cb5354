package flnet

import (
	"sync"
	"sync/atomic"
)

// serverStats is the dedicated stats block: every counter a /v1/stats
// scrape reads lives here, off the round lock. Scalar counters are
// atomics; the two per-key maps sit behind their own tiny mutex that is
// only ever held across map ops (never across channel or I/O work), so a
// scrape can never wait on an upload's Add or a round commit.
type serverStats struct {
	updatesAccepted        atomic.Int64
	updatesRejected        atomic.Int64
	updatesQuarantined     atomic.Int64
	duplicateUpdates       atomic.Int64
	updatesThrottled       atomic.Int64
	updatesMalformed       atomic.Int64
	roundsForcedByDeadline atomic.Int64
	bytesReceived          atomic.Int64

	mu                  sync.Mutex
	quarantinedByReason map[string]int64
	updatesByCodec      map[string]int64
}

func newServerStats() *serverStats {
	return &serverStats{
		quarantinedByReason: make(map[string]int64),
		updatesByCodec:      make(map[string]int64),
	}
}

// quarantine books one refused update under its reason key.
func (st *serverStats) quarantine(reason string) {
	st.updatesQuarantined.Add(1)
	st.mu.Lock()
	st.quarantinedByReason[reason]++
	st.mu.Unlock()
}

// accept books one aggregated update under its codec name.
func (st *serverStats) accept(codecName string) {
	st.updatesAccepted.Add(1)
	st.mu.Lock()
	st.updatesByCodec[codecName]++
	st.mu.Unlock()
}

// snapshotMaps copies the per-key breakdowns for a stats response.
func (st *serverStats) snapshotMaps() (byReason, byCodec map[string]int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	byReason = make(map[string]int64, len(st.quarantinedByReason))
	for k, v := range st.quarantinedByReason {
		byReason[k] = v
	}
	byCodec = make(map[string]int64, len(st.updatesByCodec))
	for k, v := range st.updatesByCodec {
		byCodec[k] = v
	}
	return byReason, byCodec
}

// Stats is the JSON body of GET /v1/stats. Every POST /v1/update lands
// in exactly one outcome counter: UpdatesAccepted (202), DuplicateUpdates
// (a repeated client's idempotent 202), UpdatesRejected (409 stale round
// or 410 after close), UpdatesQuarantined (422, broken down by reason in
// QuarantinedByReason), UpdatesThrottled (429, too many uploads in
// flight) or UpdatesMalformed (400: a bad round parameter, an
// unparseable legacy payload or wrong model dims). BytesReceived counts
// the wire bytes actually consumed from update bodies — for enveloped
// updates that is the compressed size, so the endpoint directly reports
// the uplink savings a codec buys; a throttled upload's body is never
// read. UpdatesByCodec breaks accepted updates down by codec name
// ("legacy" for unenveloped posts). UpdatesClipped counts updates the
// aggregation policy rescaled (nonzero only under a fedcore.NormClip
// policy — a clipped update is still accepted, unlike a quarantined one).
type Stats struct {
	Round               int              `json:"round"`
	Aggregator          string           `json:"aggregator"`
	UpdatesAccepted     int64            `json:"updatesAccepted"`
	UpdatesRejected     int64            `json:"updatesRejected"`
	UpdatesQuarantined  int64            `json:"updatesQuarantined"`
	QuarantinedByReason map[string]int64 `json:"quarantinedByReason,omitempty"`
	UpdatesMalformed    int64            `json:"updatesMalformed"`
	UpdatesClipped      int64            `json:"updatesClipped"`
	DuplicateUpdates    int64            `json:"duplicateUpdates"`
	UpdatesThrottled    int64            `json:"updatesThrottled"`
	// Deprecated: always 0; read by perfbench's outcome sum.
	ShardTimeouts          int64            `json:"shardTimeouts"`
	RoundsForcedByDeadline int64            `json:"roundsForcedByDeadline"`
	BytesReceived          int64            `json:"bytesReceived"`
	UpdatesByCodec         map[string]int64 `json:"updatesByCodec,omitempty"`
	Closed                 bool             `json:"closed"`
}
