package serve

import (
	"crypto/subtle"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// limiter is a token bucket per client key over the POST routes: each
// key accrues Config.RateLimit tokens per second up to a burst of
// Config.RateBurst, and every POST spends one. GETs are never charged
// — reads are answered from the stored runs and are cheap; it is
// submissions that cost a simulation.
type limiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time // test clock hook

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the per-client map: when a new client would exceed
// it, fully-refilled (idle) buckets are pruned first, so a scan of
// spoofed client keys cannot grow memory unboundedly.
const maxBuckets = 4096

func newLimiter(rate float64, burst int) *limiter {
	if burst < 1 {
		burst = 1
	}
	return &limiter{rate: rate, burst: float64(burst), now: time.Now, buckets: map[string]*bucket{}}
}

// allow spends one token of key's bucket. When the bucket is dry it
// reports the wait until the next token accrues — the Retry-After the
// 429 response carries.
func (l *limiter) allow(key string) (ok bool, retry time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// pruneLocked drops buckets that have fully refilled — clients that
// went idle long enough to carry no throttling state worth keeping.
func (l *limiter) pruneLocked(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// bearerToken extracts the Authorization: Bearer credential, "" when
// absent or differently shaped.
func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) {
		return h[len(prefix):]
	}
	return ""
}

// clientKey identifies the requester for rate limiting: the bearer
// token when the server checks one (authenticated clients budget per
// credential, not per NAT'd address), else the remote IP. Without
// Config.AuthToken a presented token is unverified, and keying by it
// would let a client mint a fresh bucket per request.
func (s *Server) clientKey(r *http.Request) string {
	if s.cfg.AuthToken != "" {
		return "token:" + bearerToken(r)
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// guardPOST wraps a POST route behind the auth gate and the per-client
// request budget. GET routes stay open by design: the read side serves
// cached bytes and health probes, and gating those would break
// scrapers and load balancers for no protection gain. Unauthorized
// requests answer before the budget check, so a credential-guessing
// client cannot drain a legitimate client's IP bucket.
func (s *Server) guardPOST(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AuthToken != "" {
			tok := bearerToken(r)
			if subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.AuthToken)) != 1 {
				s.metrics.unauthorized.Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="lockbench"`)
				http.Error(w, "POST routes need Authorization: Bearer <token> matching the server's -auth-token", http.StatusUnauthorized)
				return
			}
		}
		if s.limiter != nil {
			if ok, retry := s.limiter.allow(s.clientKey(r)); !ok {
				s.metrics.rateLimited.Inc()
				secs := int(math.Ceil(retry.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				http.Error(w, fmt.Sprintf("request budget exhausted for this client (%g POSTs/s, burst %g); retry in %ds",
					s.limiter.rate, s.limiter.burst, secs), http.StatusTooManyRequests)
				return
			}
		}
		h(w, r)
	}
}
