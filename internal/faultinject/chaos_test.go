package faultinject

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func chaosBackend() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

// TestChaosDeterministic pins the reproducibility contract: the same seed
// over the same request sequence injects exactly the same faults.
func TestChaosDeterministic(t *testing.T) {
	run := func() ChaosStats {
		c := NewChaos(ChaosSpec{
			Seed:        42,
			LatencyProb: 0.3,
			MaxLatency:  time.Millisecond,
			ErrorProb:   0.3,
			AbortProb:   0.2,
			Sleep:       func(time.Duration) {},
		})
		ts := httptest.NewServer(c.Middleware(chaosBackend()))
		defer ts.Close()
		for i := 0; i < 200; i++ {
			resp, err := http.Get(ts.URL)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	// Aborted GETs are transparently retried by net/http on a fresh
	// connection, so the server sees at least the 200 client calls.
	if a.Requests < 200 {
		t.Errorf("requests = %d, want >= 200", a.Requests)
	}
	if a.Delays == 0 || a.Errors == 0 || a.Aborts == 0 {
		t.Errorf("some fault class never fired: %+v", a)
	}
}

// TestChaosAbortsCloseConnection asserts aborts surface as client-side
// network errors, not HTTP responses.
func TestChaosAbortsCloseConnection(t *testing.T) {
	c := NewChaos(ChaosSpec{Seed: 1, AbortProb: 1})
	ts := httptest.NewServer(c.Middleware(chaosBackend()))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("aborted request got response %d, want network error", resp.StatusCode)
	}
}

func TestChaosInjectedErrors(t *testing.T) {
	c := NewChaos(ChaosSpec{Seed: 1, ErrorProb: 1})
	ts := httptest.NewServer(c.Middleware(chaosBackend()))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("injected error = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected error missing Retry-After")
	}
}

// TestChaosZeroSpecIsTransparent: an all-zero spec must pass every request
// through untouched.
func TestChaosZeroSpecIsTransparent(t *testing.T) {
	c := NewChaos(ChaosSpec{Seed: 7})
	ts := httptest.NewServer(c.Middleware(chaosBackend()))
	defer ts.Close()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Errorf("transparent chaos failed request: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Delays+st.Errors+st.Aborts != 0 {
		t.Errorf("zero spec injected faults: %+v", st)
	}
}
