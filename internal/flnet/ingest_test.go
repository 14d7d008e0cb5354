package flnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"fhdnn/internal/compress"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/hdc"
)

// pushAs posts one legacy-format update under the given client identity.
func pushAs(t *testing.T, url, id string, round int, k, d int, vals []float32) error {
	t.Helper()
	m := hdc.NewModel(k, d)
	m.SetFlat(vals)
	c := &Client{BaseURL: url, ID: id}
	return c.PushUpdate(context.Background(), round, m)
}

// legacyBody serializes a k x d model filled with one value.
func legacyBody(t *testing.T, k, d int, fill float32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := modelWith(k, d, fill).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postEnvelopeAs posts one update as a raw-codec wire envelope under the
// given client identity.
func postEnvelopeAs(url, id string, round int, vals []float32) error {
	body, err := fedcore.EncodeEnvelope(compress.Raw{}, vals)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/update?round=%d", url, round), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", EnvelopeContentType)
	req.Header.Set(ClientHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("envelope push: status %d", resp.StatusCode)
	}
	return nil
}

// The committed global model is bit-identical across add order, over the
// real HTTP path: shuffled sequential posts and eight goroutines posting
// concurrently all commit exactly what one fedcore aggregator computes.
// Bundle gets integer-valued updates, where float64 accumulation is
// exact; the sorting policies get arbitrary floats, since sorting makes
// them exactly permutation-invariant. Updates arrive as legacy bodies,
// as raw envelopes — which the server decodes into recycled buffers —
// and as a mix, so a policy that kept a reference to a recycled buffer
// past Add would commit some other client's values and fail here.
func TestServerBitIdentityAcrossAddOrder(t *testing.T) {
	const k, d, nClients, posters = 2, 16, 24, 8
	const clipBound = 5 // below most of these updates' norms (about sqrt(k*d))
	policies := []struct {
		name    string
		build   func() fedcore.Aggregator
		integer bool
	}{
		{"bundle", func() fedcore.Aggregator { return &fedcore.Bundle{} }, true},
		{"median", func() fedcore.Aggregator { return &fedcore.Median{} }, false},
		{"trimmed:0.25", func() fedcore.Aggregator { return &fedcore.TrimmedMean{Frac: 0.25} }, false},
		{"clip:5:median", func() fedcore.Aggregator {
			return &fedcore.NormClip{Inner: &fedcore.Median{}, Bound: clipBound}
		}, false},
	}
	formats := []struct {
		name     string
		envelope func(client int) bool
	}{
		{"legacy", func(int) bool { return false }},
		{"envelope", func(int) bool { return true }},
		{"mixed", func(i int) bool { return i%2 == 1 }},
	}
	for _, pol := range policies {
		rng := rand.New(rand.NewSource(42))
		updates := make([][]float32, nClients)
		ref := pol.build()
		for i := range updates {
			vals := make([]float32, k*d)
			for j := range vals {
				if pol.integer {
					vals[j] = float32(rng.Intn(41) - 20)
				} else {
					vals[j] = float32(rng.NormFloat64())
				}
			}
			updates[i] = vals
			ref.Add(fedcore.Update{Params: append([]float32(nil), vals...), Samples: 1})
		}
		want := make([]float32, k*d)
		ref.Commit(want)
		if c, ok := ref.(*fedcore.NormClip); ok && c.Clipped() == 0 {
			t.Fatalf("%s: no update is above the clip bound", pol.name)
		}

		for _, format := range formats {
			check := func(run string, srv *Server) {
				t.Helper()
				if srv.Round() != 2 {
					t.Fatalf("%s/%s/%s: round = %d, want 2", pol.name, format.name, run, srv.Round())
				}
				m, _ := srv.Model()
				for j, v := range m.Flat() {
					if math.Float32bits(v) != math.Float32bits(want[j]) {
						t.Fatalf("%s/%s/%s: global[%d] = %v, want %v", pol.name, format.name, run, j, v, want[j])
					}
				}
				if c, ok := ref.(*fedcore.NormClip); ok && srv.Stats().UpdatesClipped != c.Clipped() {
					t.Fatalf("%s/%s/%s: clipped %d updates, reference clipped %d",
						pol.name, format.name, run, srv.Stats().UpdatesClipped, c.Clipped())
				}
			}
			newServer := func() (*Server, string) {
				srv, ts := newTestServer(t, ServerConfig{
					NumClasses: k, Dim: d, MinUpdates: nClients, Aggregator: pol.build()})
				return srv, ts.URL
			}
			push := func(url string, i int) error {
				id := fmt.Sprintf("edge-%03d", i)
				if format.envelope(i) {
					return postEnvelopeAs(url, id, 1, updates[i])
				}
				return pushAs(t, url, id, 1, k, d, updates[i])
			}

			for trial := int64(0); trial < 3; trial++ {
				srv, url := newServer()
				for _, i := range rand.New(rand.NewSource(trial)).Perm(nClients) {
					if err := push(url, i); err != nil {
						t.Fatalf("%s/%s: push %d: %v", pol.name, format.name, i, err)
					}
				}
				check(fmt.Sprintf("shuffle %d", trial), srv)
			}

			srv, url := newServer()
			var wg sync.WaitGroup
			errs := make(chan error, nClients)
			for p := 0; p < posters; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := p; i < nClients; i += posters {
						if err := push(url, i); err != nil {
							errs <- fmt.Errorf("push %d: %w", i, err)
						}
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%s/%s/concurrent: %v", pol.name, format.name, err)
			}
			check("concurrent", srv)
		}
	}
}

// In-flight backpressure: with maxInFlight uploads held open mid-body,
// the next POST bounces with 429 + Retry-After before its body is read,
// the client surfaces it as a retryable ErrThrottled carrying the
// server's hint, and the held uploads still finish with 202 once their
// bodies arrive.
func TestInFlightBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: maxInFlight + 1, RetryAfter: 3 * time.Second})
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)

	writers := make([]*io.PipeWriter, maxInFlight)
	codes := make(chan int, maxInFlight)
	for i := range writers {
		pr, pw := io.Pipe()
		writers[i] = pw
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/update?round=1", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ClientHeader, fmt.Sprintf("held-%d", i))
		go func() {
			resp, err := hc.Do(req)
			if err != nil {
				codes <- -1
				return
			}
			drainClose(resp.Body)
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return srv.inFlight.Load() == maxInFlight })

	err := pushAs(t, ts.URL, "one-too-many", 1, 1, 4, []float32{1, 1, 1, 1})
	var thr ErrThrottled
	if !errors.As(err, &thr) {
		t.Fatalf("push past the in-flight bound: want ErrThrottled, got %v", err)
	}
	if thr.RetryAfter != 3*time.Second {
		t.Fatalf("Retry-After hint = %v, want 3s", thr.RetryAfter)
	}
	if !Retryable(err) {
		t.Fatal("ErrThrottled must be retryable")
	}
	if got := srv.Stats().UpdatesThrottled; got != 1 {
		t.Fatalf("UpdatesThrottled = %d, want 1", got)
	}

	body := legacyBody(t, 1, 4, 1)
	for _, pw := range writers {
		if _, err := pw.Write(body); err != nil {
			t.Fatal(err)
		}
		_ = pw.Close()
	}
	for range writers {
		if code := <-codes; code != http.StatusAccepted {
			t.Fatalf("held upload finished with %d, want 202", code)
		}
	}
	if got := srv.Stats().UpdatesAccepted; got != maxInFlight {
		t.Fatalf("UpdatesAccepted = %d, want %d", got, maxInFlight)
	}
}

// The three commit paths — the MinUpdates threshold in an upload, the
// round deadline and Shutdown — race for the same round. Whichever wins,
// every handler returns, the round advances exactly once, the model is
// the fold of exactly the updates that were accepted, and each post is
// booked once. Meaningful under -race; the post and Shutdown are
// staggered around the deadline so each path wins in some iterations.
func TestConcurrentCommitPathsAdvanceOnce(t *testing.T) {
	for iter := 0; iter < 24; iter++ {
		deadline := time.Duration(2+iter%6) * time.Millisecond
		srv, ts := newTestServer(t, ServerConfig{
			NumClasses: 1, Dim: 4, MinUpdates: 2, RoundDeadline: deadline})
		start := time.Now()
		if err := pushAs(t, ts.URL, "a", 1, 1, 4, []float32{2, 2, 2, 2}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(deadline - time.Since(start) - time.Duration(iter%4)*time.Millisecond/2)

		var wg sync.WaitGroup
		var pushErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			pushErr = pushAs(t, ts.URL, "b", 1, 1, 4, []float32{4, 4, 4, 4})
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(iter%3) * time.Millisecond)
			_ = srv.Shutdown(context.Background())
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: a handler or Shutdown never returned", iter)
		}

		if r := srv.Round(); r != 2 || !srv.Closed() {
			t.Fatalf("iteration %d: round %d closed=%v, want round 2 closed", iter, r, srv.Closed())
		}
		// The second update either closed the round by threshold (fold of
		// 2 and 4) or arrived after the deadline or Shutdown committed the
		// lone first update and was refused.
		want := float32(3)
		if pushErr != nil {
			var stale ErrStaleRound
			var he *HTTPError
			if !errors.As(pushErr, &stale) && !(errors.As(pushErr, &he) && he.StatusCode == http.StatusGone) {
				t.Fatalf("iteration %d: second push: %v, want 202, 409 or 410", iter, pushErr)
			}
			want = 2
		}
		m, _ := srv.Model()
		for j, v := range m.Flat() {
			if v != want {
				t.Fatalf("iteration %d: global[%d] = %v, want %v (push err %v)", iter, j, v, want, pushErr)
			}
		}
		st := srv.Stats()
		if st.UpdatesAccepted+st.UpdatesRejected != 2 || st.RoundsForcedByDeadline > 1 {
			t.Fatalf("iteration %d: stats %+v", iter, st)
		}
	}
}

// Shutdown racing uploads whose inline MinUpdates commit it contends
// with must not wedge the aggregator: with MinUpdates 1 every accepted
// upload commits its round under the same lock Shutdown takes, while
// eight clients keep posting to the current round. Every handler and
// Shutdown return, the server closes, and the round has advanced exactly
// once per accepted update. Meaningful under -race.
func TestShutdownRaceDoesNotWedgeShard(t *testing.T) {
	const posters = 8
	for iter := 0; iter < 12; iter++ {
		srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: 1})
		var wg sync.WaitGroup
		posts := make([]int64, posters) // POSTs made, one slot per poster
		errs := make(chan error, posters)
		wg.Add(posters + 1)
		for p := 0; p < posters; p++ {
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					posts[p]++
					err := pushAs(t, ts.URL, fmt.Sprintf("c%d-%d", p, i), srv.Round(), 1, 4, []float32{1, 1, 1, 1})
					var stale ErrStaleRound
					var he *HTTPError
					switch {
					case err == nil, errors.As(err, &stale):
					case errors.As(err, &he) && he.StatusCode == http.StatusGone:
						return
					default:
						errs <- err
						return
					}
				}
				errs <- fmt.Errorf("poster %d never saw 410 after Shutdown", p)
			}(p)
		}
		go func() {
			defer wg.Done()
			// Let a few rounds commit first, so Shutdown lands among
			// uploads that are committing.
			for start := time.Now(); srv.Round() < 2+iter%4 && time.Since(start) < 2*time.Second; {
				time.Sleep(100 * time.Microsecond)
			}
			_ = srv.Shutdown(context.Background())
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: an upload handler or Shutdown never returned", iter)
		}
		close(errs)
		for err := range errs {
			t.Fatalf("iteration %d: %v", iter, err)
		}

		st := srv.Stats()
		if !srv.Closed() {
			t.Fatalf("iteration %d: server not closed after Shutdown", iter)
		}
		if r := srv.Round(); int64(r) != 1+st.UpdatesAccepted {
			t.Fatalf("iteration %d: round %d after %d accepted updates, want %d",
				iter, r, st.UpdatesAccepted, 1+st.UpdatesAccepted)
		}
		var total int64
		for _, n := range posts {
			total += n
		}
		if st.UpdatesAccepted+st.UpdatesRejected != total {
			t.Fatalf("iteration %d: accepted %d + rejected %d, want %d posts",
				iter, st.UpdatesAccepted, st.UpdatesRejected, total)
		}
	}
}

// Uploads already inside the handler when Shutdown runs — held mid-body
// and counted against the in-flight bound — do not hold Shutdown up, and
// are released once their bodies arrive: each is refused with 410 Gone,
// the in-flight counter drains back to zero, and a later POST is refused
// as finished, not throttled. The update accepted before Shutdown is the
// one folded into the final model.
func TestCoordinateDrainReleasesQueuedRequests(t *testing.T) {
	const held = 8
	srv, ts := newTestServer(t, ServerConfig{NumClasses: 1, Dim: 4, MinUpdates: held + 2})
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)

	if err := pushAs(t, ts.URL, "early", 1, 1, 4, []float32{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	writers := make([]*io.PipeWriter, held)
	codes := make(chan int, held)
	for i := range writers {
		pr, pw := io.Pipe()
		writers[i] = pw
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/update?round=1", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ClientHeader, fmt.Sprintf("held-%d", i))
		go func() {
			resp, err := hc.Do(req)
			if err != nil {
				codes <- -1
				return
			}
			drainClose(resp.Body)
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return srv.inFlight.Load() == held })

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-shut:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown waited on uploads held mid-body")
	}

	body := legacyBody(t, 1, 4, 1)
	for _, pw := range writers {
		if _, err := pw.Write(body); err != nil {
			t.Fatal(err)
		}
		_ = pw.Close()
	}
	for range writers {
		select {
		case code := <-codes:
			if code != http.StatusGone {
				t.Fatalf("held upload finished with %d, want 410", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a held upload was never released after Shutdown")
		}
	}
	waitFor(t, func() bool { return srv.inFlight.Load() == 0 })

	err := pushAs(t, ts.URL, "late", 2, 1, 4, []float32{1, 1, 1, 1})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusGone {
		t.Fatalf("post after Shutdown: %v, want 410", err)
	}
	st := srv.Stats()
	if st.UpdatesAccepted != 1 || st.UpdatesRejected != held+1 || st.UpdatesThrottled != 0 {
		t.Fatalf("accepted/rejected/throttled = %d/%d/%d, want 1/%d/0",
			st.UpdatesAccepted, st.UpdatesRejected, st.UpdatesThrottled, held+1)
	}
	if r := srv.Round(); r != 2 {
		t.Fatalf("round %d after Shutdown, want 2", r)
	}
	m, _ := srv.Model()
	for j, v := range m.Flat() {
		if v != 5 {
			t.Fatalf("global[%d] = %v, want 5 (the update accepted before Shutdown)", j, v)
		}
	}
}

// Every POST /v1/update lands in exactly one /v1/stats outcome counter:
// one post per outcome, then the counters must sum to the post count.
func TestEveryUpdateLandsInOneCounter(t *testing.T) {
	srv, ts := newTestServer(t, ServerConfig{
		NumClasses: 1, Dim: 4, MinUpdates: 2, MaxUpdateNorm: 100})
	posts := 0
	post := func(query, contentType, client string, body []byte, want int) {
		t.Helper()
		posts++
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/update"+query, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if client != "" {
			req.Header.Set(ClientHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("post %d (%s %s): status %d, want %d", posts, query, contentType, resp.StatusCode, want)
		}
	}
	const legacy = "application/octet-stream"
	envelope, err := fedcore.EncodeEnvelope(compress.Raw{}, []float32{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	badSum := append([]byte(nil), envelope...)
	badSum[len(badSum)-1] ^= 0x40

	post("?round=1", legacy, "a", legacyBody(t, 1, 4, 1), http.StatusAccepted)
	post("?round=1", legacy, "a", legacyBody(t, 1, 4, 1), http.StatusAccepted) // duplicate
	post("?round=7", legacy, "b", legacyBody(t, 1, 4, 1), http.StatusConflict)
	post("?round=1", legacy, "", legacyBody(t, 1, 4, float32(math.NaN())), http.StatusUnprocessableEntity)
	post("?round=1", legacy, "", legacyBody(t, 1, 4, 1000), http.StatusUnprocessableEntity)
	post("?round=1", EnvelopeContentType, "", []byte("not an envelope"), http.StatusUnprocessableEntity)
	post("?round=1", EnvelopeContentType, "", badSum, http.StatusUnprocessableEntity)
	post("?round=x", legacy, "", legacyBody(t, 1, 4, 1), http.StatusBadRequest)
	post("?round=1", legacy, "", []byte("garbage"), http.StatusBadRequest)
	post("?round=1", legacy, "", legacyBody(t, 2, 4, 1), http.StatusBadRequest)

	srv.inFlight.Store(maxInFlight) // every slot taken
	post("?round=1", legacy, "", legacyBody(t, 1, 4, 1), http.StatusTooManyRequests)
	srv.inFlight.Store(0)

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	post("?round=2", legacy, "", legacyBody(t, 1, 4, 1), http.StatusGone)

	st := srv.Stats()
	for reason, want := range map[string]int64{
		QuarantineNonFinite: 1, QuarantineNormBound: 1, QuarantineEnvelope: 1, QuarantineChecksum: 1,
	} {
		if got := st.QuarantinedByReason[reason]; got != want {
			t.Fatalf("quarantined[%s] = %d, want %d", reason, got, want)
		}
	}
	if st.UpdatesMalformed != 3 || st.UpdatesThrottled != 1 || st.UpdatesRejected != 2 {
		t.Fatalf("malformed/throttled/rejected = %d/%d/%d, want 3/1/2",
			st.UpdatesMalformed, st.UpdatesThrottled, st.UpdatesRejected)
	}
	sum := st.UpdatesAccepted + st.DuplicateUpdates + st.UpdatesRejected + st.UpdatesQuarantined +
		st.UpdatesThrottled + st.UpdatesMalformed + st.ShardTimeouts
	if sum != int64(posts) {
		t.Fatalf("outcome counters sum to %d, want %d posts (stats %+v)", sum, posts, st)
	}
}
