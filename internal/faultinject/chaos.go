// Serving-side chaos: a deterministic HTTP middleware that injects the
// faults a live failure-analysis service meets in production — latency
// spikes, spurious 5xx responses, aborted connections. Everything is driven
// by one seed, so a failing chaos test reproduces exactly. (Storage faults —
// torn writes, bit flips, crashes — live in internal/iofault.)
package faultinject

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosSpec configures the HTTP chaos injector. Probabilities are in
// [0,1] and independent: a request can be delayed and then aborted.
type ChaosSpec struct {
	// Seed drives the injector's PRNG; the same seed over the same request
	// sequence injects the same faults.
	Seed int64
	// LatencyProb is the chance a request is delayed before handling.
	LatencyProb float64
	// MaxLatency bounds the injected delay (uniform in (0, MaxLatency]).
	MaxLatency time.Duration
	// ErrorProb is the chance a request is answered 503 without reaching
	// the handler.
	ErrorProb float64
	// AbortProb is the chance the connection is torn down mid-request, the
	// client seeing a network error rather than an HTTP response.
	AbortProb float64
	// Sleep overrides time.Sleep for tests that must not wait.
	Sleep func(time.Duration)
}

// ChaosStats counts what the injector did.
type ChaosStats struct {
	Requests uint64
	Delays   uint64
	Errors   uint64
	Aborts   uint64
}

// Chaos is the middleware state. Build with NewChaos, wrap a handler with
// Middleware.
type Chaos struct {
	spec  ChaosSpec
	sleep func(time.Duration)

	mu  sync.Mutex
	rng *rand.Rand

	requests atomic.Uint64
	delays   atomic.Uint64
	errors   atomic.Uint64
	aborts   atomic.Uint64
}

// NewChaos builds a chaos injector from a spec.
func NewChaos(spec ChaosSpec) *Chaos {
	sleep := spec.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Chaos{
		spec:  spec,
		sleep: sleep,
		rng:   rand.New(rand.NewSource(spec.Seed)),
	}
}

// roll draws the per-request fault decisions under the lock, so concurrent
// requests see a deterministic PRNG stream even if their interleaving is
// not.
func (c *Chaos) roll() (delay time.Duration, fail, abort bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spec.LatencyProb > 0 && c.rng.Float64() < c.spec.LatencyProb && c.spec.MaxLatency > 0 {
		delay = time.Duration(1 + c.rng.Int63n(int64(c.spec.MaxLatency)))
	}
	fail = c.spec.ErrorProb > 0 && c.rng.Float64() < c.spec.ErrorProb
	abort = c.spec.AbortProb > 0 && c.rng.Float64() < c.spec.AbortProb
	return delay, fail, abort
}

// Middleware wraps next with fault injection. Aborts panic with
// http.ErrAbortHandler, which net/http turns into a closed connection —
// exactly what a crashed or partitioned server looks like to a client.
func (c *Chaos) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		delay, fail, abort := c.roll()
		if delay > 0 {
			c.delays.Add(1)
			c.sleep(delay)
		}
		if abort {
			c.aborts.Add(1)
			panic(http.ErrAbortHandler)
		}
		if fail {
			c.errors.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "chaos: injected error", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Stats returns what the injector has done so far.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Requests: c.requests.Load(),
		Delays:   c.delays.Load(),
		Errors:   c.errors.Load(),
		Aborts:   c.aborts.Load(),
	}
}
