package simcache

// The network tier: a dumb content-addressed blob protocol that lets many
// hosts share one fragment store without a shared filesystem.
//
//	GET /v1/blob/<kind>/<key>   -> 200 + value bytes | 404
//	PUT /v1/blob/<kind>/<key>   -> 204 | 400 on a malformed blob
//
// <kind> is the one-letter value kind the disk tier already uses ("f"
// for entry fragments, "c" for class lengths, "a" for front-end analysis
// blobs) and <key> is the SHA-256 hex
// digest of the canonical cache key — so a blob name equals the disk
// filename, and any HTTP cache or object store that can serve the paths
// can stand in for the server. The protocol is versioned by the path
// prefix: a breaking change to the value encoding or the key derivation
// bumps /v1/ to /v2/; v1 values are the "1 a b" text encoding of two
// non-negative ints for "f" and "c", and the checksummed envelope of
// encodeAnalysisBlob for "a" (validated on both ends before use). Each
// kind's cap on a transfer's size lives in its row of the kind table.
//
// Trust model: keys are content hashes, so distinct computations never
// collide; values are syntactically revalidated on every decode (a corrupt
// or truncated blob is a miss, never a crash). The server does not
// authenticate writers — like the shared -simcache-dir it replaces, it is
// deployment-internal infrastructure, and a malicious writer inside the
// boundary could poison values (they are accepted on content address, not
// proof of derivation). Run it where you would mount the shared directory.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

const blobPathPrefix = "/v1/blob/"

// Remote is the client side of the blob protocol: the third lookup tier of
// a Cache (memory → disk → remote), attached with SetRemote. Transient
// failures (network errors, 5xx) are retried with doubling backoff and
// then treated as misses — like the disk tier, the remote store is an
// accelerator, never a correctness dependency. A 503 carrying Retry-After
// — the load-shedding signal `dse serve` emits — is honored: the next
// retry waits the server's hint (capped by MaxShedWait) instead of the
// blind doubling schedule, and is counted on the shed-retry obs stage.
type Remote struct {
	base string
	// Client issues the requests; NewRemote installs one with a bounded
	// per-attempt timeout. Replace before concurrent use — the Transport
	// of this client is also the fault-injection seam the chaos harness
	// (internal/fleet/faultinject) plugs into.
	Client *http.Client
	// Retries is how many times a transient failure is retried beyond the
	// first attempt; Backoff is the first retry's delay, doubling per retry.
	Retries int
	Backoff time.Duration
	// MaxShedWait caps how long a server-sent Retry-After hint is honored
	// for; longer hints (or unparsable ones) fall back to the doubling
	// backoff. ≤0 uses 2s.
	MaxShedWait time.Duration

	shedRetryT *obs.StageStats
}

// NewRemote returns a client for the blob server at base (e.g.
// "http://cachehost:8080"), with default timeout, retry and backoff.
func NewRemote(base string) *Remote {
	return &Remote{
		base:        strings.TrimRight(base, "/"),
		Client:      &http.Client{Timeout: 5 * time.Second},
		Retries:     2,
		Backoff:     50 * time.Millisecond,
		MaxShedWait: 2 * time.Second,
	}
}

// SetObs mirrors shed-then-retried requests into the
// "cache/remote/shed-retry" counter. Called by Cache.SetObs/SetRemote on
// an attached tier; call directly when using a Remote standalone. Safe on
// a nil registry; call before concurrent use.
func (r *Remote) SetObs(m *obs.Metrics) {
	if r == nil {
		return
	}
	r.shedRetryT = m.Stage("cache/remote/shed-retry")
}

// retryAfter extracts the Retry-After delay of a shed response, clamped
// to [0, MaxShedWait]. 0 means "no usable hint — use the backoff
// schedule". Only the delta-seconds form is recognized: the HTTP-date
// form buys nothing between fleet-internal services.
func (r *Remote) retryAfter(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusServiceUnavailable {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	max := r.MaxShedWait
	if max <= 0 {
		max = 2 * time.Second
	}
	if d := time.Duration(secs) * time.Second; d < max {
		return d
	}
	return max
}

func (r *Remote) url(kind, hash string) string {
	return r.base + blobPathPrefix + kind + "/" + hash
}

// sleepBeforeRetry waits before retry `attempt` (1-based): the server's
// Retry-After hint when the previous response carried one, the doubling
// backoff schedule otherwise. Honored hints are counted on the shed-retry
// stage — a shed is the server protecting itself, and the count is how an
// operator sees a remote cache running hot.
func (r *Remote) sleepBeforeRetry(attempt int, hint time.Duration) {
	if hint > 0 {
		r.shedRetryT.Inc()
		time.Sleep(hint)
		return
	}
	time.Sleep(r.Backoff << (attempt - 1))
}

// get fetches one blob of at most limit bytes. A 404 is a definitive miss
// (false, nil error); a transient failure that survives the retry budget
// returns an error, which the cache's lookup path also treats as a miss.
func (r *Remote) get(kind, hash string, limit int) ([]byte, bool, error) {
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= r.Retries; attempt++ {
		if attempt > 0 {
			r.sleepBeforeRetry(attempt, hint)
		}
		hint = 0
		resp, err := r.Client.Get(r.url(kind, hash))
		if err != nil {
			lastErr = err
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return nil, false, nil
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("simcache: remote get %s/%s: %s", kind, hash, resp.Status)
			hint = r.retryAfter(resp)
			continue
		case resp.StatusCode != http.StatusOK:
			// A 4xx other than 404 is a protocol disagreement; retrying the
			// same request cannot fix it.
			return nil, false, fmt.Errorf("simcache: remote get %s/%s: %s", kind, hash, resp.Status)
		case rerr != nil:
			lastErr = rerr
			continue
		case len(body) > limit:
			return nil, false, fmt.Errorf("simcache: remote blob %s/%s exceeds %d bytes", kind, hash, limit)
		}
		return body, true, nil
	}
	return nil, false, lastErr
}

// put publishes one blob, best-effort: transient failures are retried, and
// the final error is reported for logging but never blocks the caller's
// result (content addressing makes every writer write the same bytes, so a
// lost PUT only costs a future recomputation).
func (r *Remote) put(kind, hash string, data []byte) error {
	var lastErr error
	var hint time.Duration
	for attempt := 0; attempt <= r.Retries; attempt++ {
		if attempt > 0 {
			r.sleepBeforeRetry(attempt, hint)
		}
		hint = 0
		req, err := http.NewRequest(http.MethodPut, r.url(kind, hash), strings.NewReader(string(data)))
		if err != nil {
			return err
		}
		resp, err := r.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxValueBlobSize))
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("simcache: remote put %s/%s: %s", kind, hash, resp.Status)
			hint = r.retryAfter(resp)
			continue
		case resp.StatusCode >= 400:
			return fmt.Errorf("simcache: remote put %s/%s: %s", kind, hash, resp.Status)
		}
		return nil
	}
	return lastErr
}

// blobHandler serves the v1 blob protocol over a directory-backed cache's
// files. Every value goes through its kind's codec in both directions: a
// PUT of malformed bytes is rejected, a corrupt file on disk is a 404, and
// what is stored or served is the canonical re-encoding, so a poisonous or
// truncated blob never propagates past the process that holds it.
type blobHandler struct {
	c                      *Cache
	get, miss, put, reject *obs.StageStats
}

// NewBlobHandler returns the HTTP handler of the blob protocol, serving
// the cache's backing directory at GET/PUT /v1/blob/<kind>/<key>. The
// cache must be directory-backed (NewDir): the directory is the shared
// store, and values a remote client PUTs become local disk hits for the
// serving process's own lookups. A non-nil metrics registry counts served,
// missed, accepted and rejected blobs ("blob/{get,miss,put,reject}").
func NewBlobHandler(c *Cache, m *obs.Metrics) (http.Handler, error) {
	if c == nil || c.dir == "" {
		return nil, fmt.Errorf("simcache: blob serving needs a directory-backed cache (NewDir)")
	}
	return &blobHandler{
		c:      c,
		get:    m.Stage("blob/get"),
		miss:   m.Stage("blob/miss"),
		put:    m.Stage("blob/put"),
		reject: m.Stage("blob/reject"),
	}, nil
}

// ServeHTTP implements http.Handler.
func (h *blobHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k, hash, ok := h.c.splitBlobPath(r.URL.Path)
	if !ok {
		h.reject.Inc()
		http.Error(w, "bad blob path (want /v1/blob/<kind>/<sha256hex>)", http.StatusBadRequest)
		return
	}
	name := k.blobName() + hash
	switch r.Method {
	case http.MethodGet:
		data, err := os.ReadFile(filepath.Join(h.c.dir, name))
		if err == nil {
			data, ok = k.canonical(data)
		}
		if err != nil || !ok {
			h.miss.Inc()
			http.Error(w, "no such blob", http.StatusNotFound)
			return
		}
		h.get.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(data)
	case http.MethodPut:
		data, err := io.ReadAll(io.LimitReader(r.Body, int64(k.limit())+1))
		if err != nil || len(data) > k.limit() {
			h.reject.Inc()
			http.Error(w, "blob too large or unreadable", http.StatusBadRequest)
			return
		}
		if data, ok = k.canonical(data); !ok {
			h.reject.Inc()
			http.Error(w, "malformed blob value", http.StatusBadRequest)
			return
		}
		h.put.Inc()
		h.c.writeBlob(name, data)
		w.WriteHeader(http.StatusNoContent)
	default:
		h.reject.Inc()
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// splitBlobPath parses and validates "/v1/blob/<kind>/<hash>": the kind
// must be one of the cache's kinds and the hash a lowercase SHA-256 hex
// digest, so a request can never escape the blob namespace (no dots, no
// separators — the blob name is the exact disk filename).
func (c *Cache) splitBlobPath(path string) (blobKind, string, bool) {
	rest, found := strings.CutPrefix(path, blobPathPrefix)
	if !found {
		return nil, "", false
	}
	name, hash, found := strings.Cut(rest, "/")
	if !found || len(hash) != 64 {
		return nil, "", false
	}
	for i := 0; i < len(hash); i++ {
		if ch := hash[i]; (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return nil, "", false
		}
	}
	for _, k := range c.kinds() {
		if k.blobName() == name {
			return k, hash, true
		}
	}
	return nil, "", false
}
