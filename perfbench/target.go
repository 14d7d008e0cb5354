package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fhdnn/internal/flnet"
)

// Headers the traced run adds to each request so the server-side span
// joins its client-side parent. Untraced runs send neither.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// target is an in-process flnet server on loopback with its default
// ServerConfig apart from the model size and round size, plus the HTTP
// client that drives it over at most conns connections.
type target struct {
	srv    *flnet.Server
	inner  http.Handler
	hs     *http.Server
	base   string
	client *http.Client
	tr     atomic.Pointer[tracer]
	served chan struct{}
}

func newTarget(k, d, minUpdates, conns int) (*target, error) {
	srv, err := flnet.NewServer(flnet.ServerConfig{NumClasses: k, Dim: d, MinUpdates: minUpdates})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		srv:    srv,
		inner:  srv.Handler(),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	t.hs = &http.Server{Handler: t}
	//fhdnn:allow goroutine HTTP accept loop of the in-process server; close shuts it and waits for served
	go func() {
		defer close(t.served)
		_ = t.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return t, nil
}

// close stops the HTTP server and waits for its accept loop, shuts the
// flnet server down, and drops idle client connections.
func (t *target) close() {
	_ = t.hs.Close()
	<-t.served
	_ = t.srv.Shutdown(context.Background())
	t.client.CloseIdleConnections()
}

// ServeHTTP wraps Server.Handler(): in a traced run it records one span
// per request, named after the endpoint, and names an upload whose
// handling advanced Server.Round() a round close.
func (t *target) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.inner.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	before := t.srv.Round()
	start := time.Now()
	t.inner.ServeHTTP(w, r)
	end := time.Now()
	name := "flnet.other"
	switch r.URL.Path {
	case "/v1/update":
		name = "flnet.update"
		if t.srv.Round() != before {
			name = "flnet.update_close"
		}
	case "/v1/model":
		name = "flnet.model"
	case "/v1/round":
		name = "flnet.round"
	}
	tr.record(name, op, parent, start, end)
	tr.count(name, 1)
}

// reply is what the client saw for one request.
type reply struct {
	status int
	header http.Header
	start  time.Time
	end    time.Time
	err    error
}

// do sends one request, reads the whole reply body, and times it. In a
// traced run it opens a client span named name under parent and tags the
// request so the handler span nests under it.
func (t *target) do(method, path, contentType string, body []byte, clientID string,
	tr *tracer, name string, op, parent int64) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return reply{err: fmt.Errorf("build request: %w", err)}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if clientID != "" {
		req.Header.Set(flnet.ClientHeader, clientID)
	}
	id := tr.begin(name, op, parent)
	if tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	rep := reply{start: time.Now()}
	resp, err := t.client.Do(req)
	if err != nil {
		rep.end, rep.err = time.Now(), err
		tr.end(id)
		return rep
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	rep.end = time.Now()
	tr.end(id)
	rep.status, rep.header = resp.StatusCode, resp.Header
	if err != nil {
		rep.err = fmt.Errorf("read reply: %w", err)
	}
	return rep
}

// headerRound parses the X-FHDnn-Round header of a reply.
func headerRound(h http.Header) (int, error) {
	if h == nil {
		return 0, errors.New("no reply headers")
	}
	r, err := strconv.Atoi(h.Get(flnet.RoundHeader))
	if err != nil {
		return 0, fmt.Errorf("bad %s header: %w", flnet.RoundHeader, err)
	}
	return r, nil
}

// statsDelta is the change in the server's outcome counters over a pass.
type statsDelta struct {
	accepted, rejected, quarantined, nonfinite, duplicates, throttled, timeouts, bytes int64
	rounds                                                                             int
}

func deltaStats(a, b flnet.Stats) statsDelta {
	return statsDelta{
		accepted:    b.UpdatesAccepted - a.UpdatesAccepted,
		rejected:    b.UpdatesRejected - a.UpdatesRejected,
		quarantined: b.UpdatesQuarantined - a.UpdatesQuarantined,
		nonfinite:   b.QuarantinedByReason[flnet.QuarantineNonFinite] - a.QuarantinedByReason[flnet.QuarantineNonFinite],
		duplicates:  b.DuplicateUpdates - a.DuplicateUpdates,
		throttled:   b.UpdatesThrottled - a.UpdatesThrottled,
		timeouts:    b.ShardTimeouts - a.ShardTimeouts,
		bytes:       b.BytesReceived - a.BytesReceived,
		rounds:      b.Round - a.Round,
	}
}

// outcomes is every upload the server booked in exactly one counter.
func (s statsDelta) outcomes() int64 {
	return s.accepted + s.rejected + s.quarantined + s.duplicates + s.throttled + s.timeouts
}

// report stores a pass's flnet figures: the server's own counters, and
// in a traced pass (tr not nil) the handler timings from its spans.
func (s statsDelta) report(into map[string]float64, tr *tracer) {
	into["flnet.quarantined"] = float64(s.quarantined)
	into["flnet.stale"] = float64(s.rejected)
	into["flnet.throttled"] = float64(s.throttled)
	into["flnet.duplicates"] = float64(s.duplicates)
	into["flnet.bytes_received"] = float64(s.bytes)
	if posted := s.outcomes(); posted > 0 {
		into["flnet.accept_ratio"] = float64(s.accepted) / float64(posted)
	}
	if tr != nil {
		handlerLayers(tr.snapshot(), into)
	}
}

// handlerLayers derives the flnet handler metrics from a traced pass's
// spans.
func handlerLayers(spans []span, into map[string]float64) {
	updates := append(spanMs(spans, "flnet.update"), spanMs(spans, "flnet.update_close")...)
	us := summarize(updates)
	into["flnet.update_handler_p50_ms"] = us.P50
	into["flnet.update_handler_p99_ms"] = us.P99
	if models := spanMs(spans, "flnet.model"); len(models) > 0 {
		into["flnet.model_handler_p50_ms"] = summarize(models).P50
	}
	into["flnet.round_close_ms"] = median(spanMs(spans, "flnet.update_close"))
	into["flnet.transport_ms"] = transportMs(spans, "client.upload")
}

// transportMs is the median of client span minus its handler span, over
// the client spans named client.
func transportMs(spans []span, client string) float64 {
	handler := make(map[int64]span)
	for _, s := range spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, "flnet.") {
			handler[s.Parent] = s
		}
	}
	var out []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == client {
			out = append(out, ms(s.dur()-h.dur()))
		}
	}
	return median(out)
}
