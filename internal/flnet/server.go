// Package flnet is the wire-level federated bundling service: an HTTP
// server hosting the global HD model and aggregating client updates, plus
// the matching client. The in-process simulator (package fl) answers the
// paper's experimental questions; this package is what an actual AIoT
// deployment would run — the updates crossing this API are exactly the
// flat prototype matrices whose size and robustness the paper analyzes.
//
// Protocol (all payloads little-endian binary, metadata as JSON):
//
//	GET  /v1/round            -> {"round":N,"updatesPending":k,"closed":bool}
//	GET  /v1/model            -> binary global model, X-FHDnn-Round header
//	GET  /v1/stats            -> cumulative counters (rounds, updates, bytes)
//	POST /v1/update?round=N   -> client update; 202 if accepted, 400 if
//	                             malformed, 409 if N is stale, 422 if
//	                             quarantined, 429 + Retry-After if too
//	                             many uploads are in flight, 410 after close
//
// An update body is either the legacy hdc model serialization
// (Content-Type application/octet-stream) or a fedcore wire envelope
// (Content-Type application/x-fhdnn-envelope) framing any negotiated
// compress.Codec. The server advertises the codec names it accepts in the
// X-FHDnn-Codecs response header of /v1/round and /v1/model; clients pick
// one and fall back to the legacy format when the header is absent.
// Envelopes that fail validation — bad magic, truncated payload, checksum
// mismatch, codec errors — are quarantined with HTTP 422, the same path
// that refuses non-finite updates.
//
// Aggregation is one element-wise sum of prototypes (paper Eq. 1) and
// runs inline in the upload handler. The handler reads, decodes and
// gates its update with no lock held, then takes Server.mu once to check
// the round, dedupe the client, Add the update into the server's single
// fedcore.Aggregator and — for the MinUpdates-th update of the round —
// commit the round before unlocking; the response is written after. At
// most maxInFlight uploads are handled at once: the next one is answered
// 429 with a Retry-After hint before its body is read, backpressure
// instead of unbounded buffering. A round closes when MinUpdates client
// models have arrived, or — when a RoundDeadline is configured — when
// the deadline expires with at least one update pending (partial
// aggregation; an empty round is carried forward). Clients may identify
// themselves with the X-FHDnn-Client header; a second update from the
// same client in one round is accepted idempotently but not aggregated
// twice, which makes client-side retries safe. Updates containing
// non-finite parameters (NaN/Inf, e.g. produced by bit errors on the
// uplink) or with an L2 norm above MaxUpdateNorm are quarantined with
// HTTP 422 before they can poison the global model. The commit rule
// defaults to fedcore.Bundle — the same federated-bundling rule the
// in-process simulator uses — but ServerConfig.Aggregator swaps in a
// Byzantine-robust policy (coordinate-wise median, trimmed mean, or
// norm-clipping; see fedcore.ParseAggregator) for deployments where a
// colluding minority of in-bound poisoners would sail straight through
// the quarantine gates. GET /v1/stats books every upload in exactly one
// outcome counter and reports the active policy, a per-reason quarantine
// breakdown, and how many updates the policy clipped.
package flnet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
)

// RoundHeader is the response header carrying the server's current round.
const RoundHeader = "X-FHDnn-Round"

// ClientHeader is the optional request header identifying the sending
// client; the server deduplicates updates per (client, round).
const ClientHeader = "X-FHDnn-Client"

// CodecsHeader is the response header on /v1/round and /v1/model
// advertising the comma-separated codec names the server accepts inside
// wire envelopes.
const CodecsHeader = "X-FHDnn-Codecs"

// EnvelopeContentType marks a POST /v1/update body framed as a fedcore
// wire envelope instead of the legacy hdc model serialization.
const EnvelopeContentType = "application/x-fhdnn-envelope"

// legacyCodecName keys legacy (unenveloped) updates in the per-codec
// stats.
const legacyCodecName = "legacy"

// advertisedCodecs returns the CodecsHeader value.
func advertisedCodecs() string {
	ids := fedcore.AllCodecIDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = fedcore.CodecName(id)
	}
	return strings.Join(names, ",")
}

// ServerConfig sizes the aggregation service.
type ServerConfig struct {
	NumClasses int
	Dim        int
	// MinUpdates closes a round once this many client updates arrived.
	MinUpdates int
	// MaxRounds stops accepting updates after this many rounds
	// (0 = unlimited).
	MaxRounds int
	// RoundDeadline forcibly closes a round this long after it opens,
	// aggregating whatever arrived even if fewer than MinUpdates. A
	// round with zero updates is carried forward for another deadline
	// instead of aggregating nothing. 0 disables deadlines (a round
	// then waits for MinUpdates indefinitely).
	RoundDeadline time.Duration
	// MaxUpdateNorm quarantines updates whose L2 norm exceeds it
	// (0 disables the norm gate; non-finite values are always
	// quarantined).
	MaxUpdateNorm float64
	// Aggregator, when set, replaces the default fedcore.Bundle commit
	// rule with another server policy — fedcore.Median, TrimmedMean, or
	// NormClip for Byzantine robustness (see fedcore.ParseAggregator for
	// the spec grammar). The instance donates its canonical policy spec:
	// the server builds its own fresh instance from it, so it must
	// round-trip through ParseAggregator.
	Aggregator fedcore.Aggregator
	// RetryAfter is the Retry-After hint on 429 responses. 0 defaults
	// to 1s.
	RetryAfter time.Duration
}

// Validate checks the configuration.
func (c ServerConfig) Validate() error {
	if c.NumClasses <= 0 || c.Dim <= 0 {
		return fmt.Errorf("flnet: invalid model dims %dx%d", c.NumClasses, c.Dim)
	}
	if c.MinUpdates <= 0 {
		return fmt.Errorf("flnet: MinUpdates must be positive")
	}
	if c.RoundDeadline < 0 {
		return fmt.Errorf("flnet: negative RoundDeadline")
	}
	if c.MaxUpdateNorm < 0 {
		return fmt.Errorf("flnet: negative MaxUpdateNorm")
	}
	if c.RetryAfter < 0 {
		return fmt.Errorf("flnet: negative RetryAfter")
	}
	return nil
}

// maxInFlight bounds the uploads handled at once. The next upload is
// answered 429 with a Retry-After hint before its body is read, so a
// burst costs the server one header parse per refused client instead of
// a buffered payload.
const maxInFlight = 256

// Server is the federated aggregation endpoint. It is safe for concurrent
// use. One mutex guards the round state — the aggregator, the per-round
// dedupe set, the global model and the deadline timer — and every write
// of round, closed and pending; those three are atomics so GET /v1/round
// and the handlers' early gates read them without the lock.
type Server struct {
	cfg        ServerConfig
	aggName    string // canonical policy spec, for Stats
	retryAfter time.Duration

	mu            sync.Mutex
	agg           fedcore.Aggregator
	seen          map[string]bool // clients that contributed to the open round
	model         *hdc.Model
	deadlineTimer *time.Timer

	round    atomic.Int64
	closed   atomic.Bool
	pending  atomic.Int64 // updates aggregated into the open round
	inFlight atomic.Int64 // uploads inside handleUpdate

	// bodies recycles *bytes.Buffer upload bodies and params recycles
	// *[]float32 decode buffers of NumClasses*Dim values, so a
	// steady-state upload allocates neither. A buffer goes back to its
	// pool once the handler is done with it; that is safe because
	// Aggregator.Add never retains u.Params.
	bodies sync.Pool
	params sync.Pool

	stats *serverStats
}

// NewServer creates a server with a zero-initialized global model at
// round 1. If cfg.RoundDeadline is set, the round-1 deadline starts
// ticking immediately; call Shutdown to stop it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := "bundle"
	if cfg.Aggregator != nil {
		spec = fedcore.AggregatorName(cfg.Aggregator)
	}
	agg, err := fedcore.ParseAggregator(spec)
	if err != nil {
		return nil, fmt.Errorf("flnet: aggregator does not round-trip its spec %q: %w", spec, err)
	}
	retryAfter := cfg.RetryAfter
	if retryAfter == 0 {
		retryAfter = time.Second
	}
	s := &Server{
		cfg:        cfg,
		aggName:    spec,
		retryAfter: retryAfter,
		agg:        agg,
		seen:       make(map[string]bool),
		model:      hdc.NewModel(cfg.NumClasses, cfg.Dim),
		stats:      newServerStats(),
	}
	s.bodies.New = func() any { return new(bytes.Buffer) }
	s.params.New = func() any {
		p := make([]float32, cfg.NumClasses*cfg.Dim)
		return &p
	}
	s.round.Store(1)
	s.mu.Lock()
	s.armDeadline()
	s.mu.Unlock()
	return s, nil
}

// Model returns a snapshot of the current global model and round.
func (s *Server) Model() (*hdc.Model, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model.Clone(), int(s.round.Load())
}

// Round returns the current round number.
func (s *Server) Round() int { return int(s.round.Load()) }

// Closed reports whether the server has finished MaxRounds (or was shut
// down).
func (s *Server) Closed() bool { return s.closed.Load() }

// Shutdown closes the current round cleanly: pending updates are
// aggregated into the global model, the deadline timer is stopped, and
// all further updates are refused with 410 Gone. It is idempotent and
// safe to call while handlers are in flight. The context is consulted
// only for early cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed.Load() {
		s.commitLocked(commitShutdown)
	}
	return nil
}

// Handler returns the HTTP handler implementing the protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/round", s.handleRound)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	return mux
}

// roundInfo is the JSON body of GET /v1/round.
type roundInfo struct {
	Round          int  `json:"round"`
	UpdatesPending int  `json:"updatesPending"`
	MinUpdates     int  `json:"minUpdates"`
	Closed         bool `json:"closed"`
}

func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	info := roundInfo{
		Round:          int(s.round.Load()),
		UpdatesPending: int(s.pending.Load()),
		MinUpdates:     s.cfg.MinUpdates,
		Closed:         s.closed.Load(),
	}
	w.Header().Set(CodecsHeader, advertisedCodecs())
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(info); err != nil {
		// connection-level failure; nothing more to do
		return
	}
}

// Quarantine reason keys, as reported in Stats.QuarantinedByReason. Each
// names the gate that refused the update: a non-finite parameter, the
// L2 norm bound, a malformed wire envelope, or an envelope whose CRC32
// did not match its payload.
const (
	QuarantineNonFinite = "nonfinite"
	QuarantineNormBound = "normbound"
	QuarantineEnvelope  = "envelope"
	QuarantineChecksum  = "checksum"
)

// Stats returns a snapshot of the cumulative counters.
func (s *Server) Stats() Stats {
	byReason, byCodec := s.stats.snapshotMaps()
	var clipped int64
	if c, ok := s.agg.(interface{ Clipped() int64 }); ok {
		clipped = c.Clipped()
	}
	return Stats{
		Round:                  int(s.round.Load()),
		Aggregator:             s.aggName,
		UpdatesAccepted:        s.stats.updatesAccepted.Load(),
		UpdatesRejected:        s.stats.updatesRejected.Load(),
		UpdatesQuarantined:     s.stats.updatesQuarantined.Load(),
		QuarantinedByReason:    byReason,
		UpdatesMalformed:       s.stats.updatesMalformed.Load(),
		UpdatesClipped:         clipped,
		DuplicateUpdates:       s.stats.duplicateUpdates.Load(),
		UpdatesThrottled:       s.stats.updatesThrottled.Load(),
		RoundsForcedByDeadline: s.stats.roundsForcedByDeadline.Load(),
		BytesReceived:          s.stats.bytesReceived.Load(),
		UpdatesByCodec:         byCodec,
		Closed:                 s.closed.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		return
	}
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	model, round := s.Model()
	var buf bytes.Buffer
	if _, err := model.WriteTo(&buf); err != nil {
		http.Error(w, "flnet: serialize model: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(RoundHeader, strconv.Itoa(round))
	w.Header().Set(CodecsHeader, advertisedCodecs())
	_, _ = w.Write(buf.Bytes())
}

// countingReader counts the wire bytes actually consumed from the request
// body (serialization header + payload), so bytesReceived reflects real
// uplink traffic rather than a payload-only estimate.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.inFlight.Add(1) > maxInFlight {
		s.inFlight.Add(-1)
		s.stats.updatesThrottled.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.retryAfter)))
		http.Error(w, "flnet: too many uploads in flight, retry later", http.StatusTooManyRequests)
		return
	}
	defer s.inFlight.Add(-1)
	wantRound, err := strconv.Atoi(r.URL.Query().Get("round"))
	if err != nil {
		s.stats.updatesMalformed.Add(1)
		http.Error(w, "flnet: missing or bad round parameter", http.StatusBadRequest)
		return
	}
	clientID := r.Header.Get(ClientHeader)
	n := s.cfg.NumClasses * s.cfg.Dim
	// Limit covers the legacy serialization (12 + 4n) and the worst-case
	// envelope (top-k at Frac 1: header + 4 + 8n).
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, int64(64+fedcore.EnvelopeOverhead+8*n))}

	// Read and decode with no lock held; neither path touches round
	// state. The body and the decoded update live in pooled buffers that
	// go back when the handler returns.
	buf := s.bodies.Get().(*bytes.Buffer)
	defer s.bodies.Put(buf)
	buf.Reset()
	_, rerr := buf.ReadFrom(body)
	s.stats.bytesReceived.Add(body.n)
	data := buf.Bytes()
	var flat []float32
	codecName := legacyCodecName
	if r.Header.Get("Content-Type") == EnvelopeContentType {
		params := s.params.Get().(*[]float32)
		defer s.params.Put(params)
		var envErr error
		if rerr != nil {
			envErr = fmt.Errorf("read body: %w", rerr)
		} else {
			var id fedcore.CodecID
			id, envErr = fedcore.DecodeEnvelopeInto(*params, data)
			flat = *params
			codecName = fedcore.CodecName(id)
		}
		if envErr != nil {
			// A mangled envelope — bad magic, truncated payload, checksum
			// or codec-level failure — is quarantine material just like a
			// non-finite update: refusing it protects the global model, and
			// the client knows not to retry the same bytes. Checksum
			// mismatches get their own stats key: a rising checksum count
			// points at line corruption, a rising envelope count at a
			// broken (or hostile) client implementation.
			reason := QuarantineEnvelope
			if errors.Is(envErr, fedcore.ErrEnvelopeChecksum) {
				reason = QuarantineChecksum
			}
			s.stats.quarantine(reason)
			http.Error(w, "flnet: update quarantined: bad envelope: "+envErr.Error(),
				http.StatusUnprocessableEntity)
			return
		}
	} else {
		// The strict slice decoder also rejects trailing bytes after the
		// declared payload — a lossy transport must not smuggle garbage
		// past the parser.
		var update *hdc.Model
		merr := rerr
		if merr == nil {
			update, merr = hdc.DecodeModel(data)
		}
		if merr != nil {
			s.stats.updatesMalformed.Add(1)
			http.Error(w, "flnet: bad update payload: "+merr.Error(), http.StatusBadRequest)
			return
		}
		if update.K != s.cfg.NumClasses || update.D != s.cfg.Dim {
			s.stats.updatesMalformed.Add(1)
			http.Error(w, fmt.Sprintf("flnet: update dims %dx%d, want %dx%d",
				update.K, update.D, s.cfg.NumClasses, s.cfg.Dim), http.StatusBadRequest)
			return
		}
		flat = update.Flat()
	}

	// The closed and stale gates run lock-free before the quarantine
	// scan, so an update for a finished round is refused without reading
	// it; ingest repeats them under the lock.
	if s.closed.Load() {
		s.stats.updatesRejected.Add(1)
		http.Error(w, "flnet: training finished", http.StatusGone)
		return
	}
	if round := int(s.round.Load()); wantRound != round {
		s.stats.updatesRejected.Add(1)
		s.staleResponse(w, wantRound, round)
		return
	}
	if reason, detail := quarantineReason(flat, s.cfg.MaxUpdateNorm); reason != "" {
		s.stats.quarantine(reason)
		http.Error(w, "flnet: update quarantined: "+detail, http.StatusUnprocessableEntity)
		return
	}
	switch v, round := s.ingest(wantRound, clientID, codecName, flat); v {
	case vAccepted, vDuplicate:
		w.WriteHeader(http.StatusAccepted)
	case vStale:
		s.staleResponse(w, wantRound, round)
	case vClosed:
		http.Error(w, "flnet: training finished", http.StatusGone)
	}
}

type verdict int

const (
	vAccepted verdict = iota
	vDuplicate
	vStale
	vClosed
)

// ingest folds one decoded, gate-checked update into the open round
// under s.mu. The closed, round and duplicate checks are repeated under
// the lock, since a commit may have landed after the handler's lock-free
// gates. The MinUpdates-th update of the round commits it inline, so the
// triggering client's 202 is written only after the round has advanced.
// It returns the verdict and, for a stale update, the current round.
//
//fhdnn:hotpath per-update aggregation step, serialized on the server lock
func (s *Server) ingest(wantRound int, clientID, codecName string, flat []float32) (verdict, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		s.stats.updatesRejected.Add(1)
		return vClosed, 0
	}
	round := int(s.round.Load())
	if wantRound != round {
		s.stats.updatesRejected.Add(1)
		return vStale, round
	}
	if clientID != "" {
		if s.seen[clientID] {
			s.stats.duplicateUpdates.Add(1)
			return vDuplicate, round
		}
		s.seen[clientID] = true
	}
	s.agg.Add(fedcore.Update{Params: flat, Round: round, ClientID: clientID, Samples: 1})
	s.stats.accept(codecName)
	if s.pending.Add(1) >= int64(s.cfg.MinUpdates) {
		s.commitLocked(commitMinUpdates)
	}
	return vAccepted, round
}

type commitReason int

const (
	commitMinUpdates commitReason = iota
	commitDeadline
	commitShutdown
)

// commitLocked closes the current round; s.mu must be held. A non-empty
// round is folded into the global model, the round state is reset and
// the round advances, then the next deadline is armed — or the server
// closes, after MaxRounds or on shutdown. An empty round is carried
// forward, because the global model must not drift toward zero just
// because every client stalled: a deadline re-arms, and a shutdown
// closes with nothing to fold.
func (s *Server) commitLocked(reason commitReason) {
	if s.pending.Load() == 0 {
		switch reason {
		case commitDeadline:
			s.armDeadline()
		case commitShutdown:
			s.closeLocked()
		}
		return
	}
	s.agg.Commit(s.model.Flat())
	s.agg.Reset()
	clear(s.seen)
	s.pending.Store(0)
	if reason == commitDeadline {
		s.stats.roundsForcedByDeadline.Add(1)
	}
	next := s.round.Add(1)
	if reason == commitShutdown || (s.cfg.MaxRounds > 0 && next > int64(s.cfg.MaxRounds)) {
		s.closeLocked()
	} else {
		s.armDeadline()
	}
}

// closeLocked refuses all further updates; s.mu must be held.
func (s *Server) closeLocked() {
	s.closed.Store(true)
	s.stopDeadline()
}

// armDeadline (re)arms the deadline for the current round; s.mu must be
// held. The timer's callback commits under the same lock, and a deadline
// that fires for a round that has already closed is a no-op.
func (s *Server) armDeadline() {
	s.stopDeadline()
	if s.cfg.RoundDeadline <= 0 || s.closed.Load() {
		return
	}
	round := s.round.Load()
	s.deadlineTimer = time.AfterFunc(s.cfg.RoundDeadline, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed.Load() && s.round.Load() == round {
			s.commitLocked(commitDeadline)
		}
	})
}

// stopDeadline cancels the pending deadline; s.mu must be held.
func (s *Server) stopDeadline() {
	if s.deadlineTimer != nil {
		s.deadlineTimer.Stop()
		s.deadlineTimer = nil
	}
}

func (s *Server) staleResponse(w http.ResponseWriter, wantRound, current int) {
	w.Header().Set(RoundHeader, strconv.Itoa(current))
	http.Error(w, fmt.Sprintf("flnet: stale round %d, current is %d", wantRound, current),
		http.StatusConflict)
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, never below 1 (a zero would tell clients to hammer immediately).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// quarantineReason decides whether an update is safe to aggregate. A
// single NaN or Inf parameter — readily produced by IEEE-754 exponent-bit
// flips on a BSC uplink (see internal/channel.BitErrorFloat32) — would
// propagate through the mean into every future global model, so such
// updates are refused outright, as are updates whose energy exploded past
// maxNorm (0 disables the norm gate). The returned reason is a stats key
// (QuarantineNonFinite, QuarantineNormBound; "" for a clean update); the
// detail names the offending index and value so a quarantined client's
// 422 body is actionable.
//
// The non-finite scan reads float32 exponent bits (all ones is NaN or
// Inf) and is the only pass over a clean update when the norm gate is
// off. The float64 sum of squares runs only when it is on, and the
// largest-parameter search only for a refused update, so a clean update
// costs one integer pass. The verdicts and details are those of a single
// float64 pass computing all three.
func quarantineReason(flat []float32, maxNorm float64) (reason, detail string) {
	const expMask = 0x7f800000
	for i, v := range flat {
		if math.Float32bits(v)&expMask == expMask {
			return QuarantineNonFinite, fmt.Sprintf("non-finite parameter %v at index %d", v, i)
		}
	}
	if !(maxNorm > 0) {
		return "", ""
	}
	var sum float64
	for _, v := range flat {
		f := float64(v)
		sum += f * f
	}
	norm := math.Sqrt(sum)
	if !(norm > maxNorm) {
		return "", ""
	}
	peakIdx, peakAbs := -1, 0.0
	for i, v := range flat {
		if a := math.Abs(float64(v)); a > peakAbs {
			peakIdx, peakAbs = i, a
		}
	}
	return QuarantineNormBound, fmt.Sprintf(
		"L2 norm %.4g exceeds limit %g (largest parameter %.4g at index %d)",
		norm, maxNorm, peakAbs, peakIdx)
}
