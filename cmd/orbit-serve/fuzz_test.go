package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzApp is one small server shared by every handler-level test in
// this file: building it trains a model, and the handler is safe for
// concurrent use.
var fuzzApp = sync.OnceValues(func() (*app, error) {
	return newApp(options{trainSteps: 1, maxBatch: 2, stepsCap: 4, replicas: 1})
})

// serveForecast runs one POST /v1/forecast through the handler,
// without a socket.
func serveForecast(t *testing.T, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	a, err := fuzzApp()
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	a.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/forecast", bytes.NewReader(body)))
	return rec
}

// paddedRequest is a valid request followed by 2 MiB of whitespace.
func paddedRequest() []byte {
	return append([]byte(`{"start": 0, "steps": 1}`), bytes.Repeat([]byte(" "), 2<<20)...)
}

// TestForecastBodyCap: the handler reads a bounded prefix of the body
// and refuses the rest, instead of following a client for as long as
// it keeps sending.
func TestForecastBodyCap(t *testing.T) {
	if rec := serveForecast(t, paddedRequest()); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: got %d (%s), want 413", rec.Code, rec.Body)
	}
	// Whitespace up to the cap is still a valid request; the cap counts
	// bytes, not what they spell.
	inside := append([]byte(`{"start": 0, "steps": 1}`), bytes.Repeat([]byte("\n"), maxForecastBody/2)...)
	if rec := serveForecast(t, inside); rec.Code != http.StatusOK {
		t.Errorf("%d-byte body: got %d (%s), want 200", len(inside), rec.Code, rec.Body)
	}
	for _, body := range []string{
		`{"start": 0, "steps": 1} trailing`,
		`{"start": 0, "steps": 1}{"start": 1, "steps": 1}`,
		`{"start": 0, "steps": 1, "deadline_ms": 9223372036855}`, // overflows a time.Duration
	} {
		if rec := serveForecast(t, []byte(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: got %d (%s), want 400", body, rec.Code, rec.Body)
		}
	}
}

// FuzzForecastBody: whatever the body, the handler answers with one of
// the documented statuses and a JSON object — never a panic, a hang or
// a half-written reply. The committed corpus (testdata/fuzz) holds the
// small hostile cases; the oversized one is built here.
func FuzzForecastBody(f *testing.F) {
	f.Add(paddedRequest())
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveForecast(t, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusGatewayTimeout, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d is not one the API documents; reply %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
		}
		var reply map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d with a reply that is not a JSON object: %v: %s", rec.Code, err, rec.Body)
		}
		if _, isErr := reply["error"]; isErr == (rec.Code == http.StatusOK) {
			t.Fatalf("status %d but reply %v", rec.Code, reply)
		}
	})
}
