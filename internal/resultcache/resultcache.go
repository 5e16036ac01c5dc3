// Package resultcache is the persistent, content-addressed memoization
// store for measurement cells. Every cell of a campaign is a pure,
// deterministic function of its content-addressed identity (the
// checkpoint.CellKey over scenario content × agent × engine × effective
// options × heap spec × scale/runs/warmup), so any two invocations with
// equal keys are interchangeable: the cache stores each cell's canonical
// JSON payload once on disk and serves every later invocation — a second
// Table I run, an overlapping sweep, a CI re-run — at near-pure-render
// cost. Resolve is the one path every tool serves a cell through.
//
// The cache is also the crash-resume store: a killed run resumes by
// being re-run with the same directory, and the cells it finished are
// served from disk byte-identically.
//
// Layout (see docs/caching.md):
//
//	<dir>/VERSION        layout stamp ("jvmsim-resultcache-v1")
//	<dir>/ab/<64 hex>    one entry per cell key, sharded by the key's
//	                     first two hex digits
//
// Each entry holds one JSON object {"key": <hex>, "payload": <raw>},
// written to a fsync'd temp file in the cache root and renamed into
// place, so neither a concurrent writer (two processes sharing a cache
// directory) nor a killed one can expose a torn entry: a writer killed
// before the rename leaves only a ".put-*" temp file, which every reader
// ignores and Evict sweeps once it is older than StrayGrace. A read is
// one raw descriptor read into a pooled buffer; it checks the exact bytes
// Put writes and makes one JSON pass over the payload (decoding it
// straight into the caller's value, or validating it): an
// unreadable, truncated, key-mismatched or non-canonical entry, or a
// payload that does not decode into the caller's value, is a miss, never
// a crash — a corrupted cache costs re-execution, not correctness.
//
// Eviction is a size-capped LRU pass over entry mtimes (an rw-mode hit
// touches its entry), run by Finish when a cap is configured. Failed
// cells are never stored — Put is only reached with a complete,
// successful payload.
package resultcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// LayoutVersion is the on-disk layout stamp. A directory carrying a
// different stamp (or entries but no stamp at all) belongs to another
// layout generation and is refused with a remediation message instead of
// being misread.
const LayoutVersion = "jvmsim-resultcache-v1"

// versionFile is the stamp's file name inside the cache directory.
const versionFile = "VERSION"

// tempPrefix starts the name of every temp file Put writes in the cache
// root.
const tempPrefix = ".put-"

// StrayGrace is how old a temp file in the cache root must be before
// Evict sweeps it. A live Put holds its temp file for one write, fsync
// and rename, so a file this old was left by a writer killed before its
// rename; the margin spares a slow writer in another process sharing
// the directory.
const StrayGrace = time.Hour

// EnvVar is the environment variable naming the default cache directory,
// so a fleet of invocations shares one store without repeating
// -cache-dir. The value "off" disables caching even when later flags
// would not; the flags always win over the environment.
const EnvVar = "JVMSIM_CACHE"

// Mode selects how a cache participates in a run.
type Mode int

const (
	// ModeOff disables the cache entirely (Open returns nil).
	ModeOff Mode = iota
	// ModeRO serves hits but never writes: no entries, no version stamp,
	// no eviction. A missing directory is an empty cache, not an error.
	ModeRO
	// ModeRW serves hits and stores every successful cell.
	ModeRW
)

// String names the mode the way the -cache flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeRO:
		return "ro"
	case ModeRW:
		return "rw"
	default:
		return "off"
	}
}

// ParseMode parses the -cache flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "ro":
		return ModeRO, nil
	case "rw":
		return ModeRW, nil
	}
	return ModeOff, fmt.Errorf("resultcache: unknown cache mode %q (want off, ro or rw)", s)
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Deduped   uint64 `json:"deduped"`
	Evictions uint64 `json:"evictions"`
	Verified  uint64 `json:"verified"`
}

// HitRate is the fraction of lookups served from disk, in percent.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total) * 100
}

// String renders the stats trailer the CLIs print after a cached run.
func (s Stats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses, %d deduped, %d evicted, %d verified (%.1f%% hit rate)",
		s.Hits, s.Misses, s.Deduped, s.Evictions, s.Verified, s.HitRate())
}

// Cache is a persistent content-addressed result store rooted at one
// directory. All methods are safe for concurrent use, nil-safe (a nil
// *Cache behaves as ModeOff: every Get misses without counting, every
// Put is a no-op), and safe against concurrent use of the same directory
// by other processes.
type Cache struct {
	dir  string
	mode Mode
	// MaxBytes caps the total entry size; Finish (or an explicit Evict)
	// deletes least-recently-used entries until the cap holds. Zero means
	// unbounded.
	MaxBytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	deduped   atomic.Uint64
	evictions atomic.Uint64
	verified  atomic.Uint64

	// tel mirrors the counters into a telemetry registry's process
	// family as they happen; nil (the default) costs one comparison.
	tel *telemetry.Recorder
}

// record is one entry file's content.
type record struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// Open opens (and in rw mode initializes) the cache at dir. ModeOff
// returns a nil cache, which every method accepts. A directory stamped
// with a different layout version — or holding entries without any stamp
// — is a descriptive error telling the user how to recover, not a store
// to be misread.
func Open(dir string, mode Mode) (*Cache, error) {
	if mode == ModeOff {
		return nil, nil
	}
	if dir == "" {
		return nil, fmt.Errorf("resultcache: mode %s needs a cache directory (set -cache-dir or JVMSIM_CACHE)", mode)
	}
	if err := CheckLayout(dir); err != nil {
		return nil, err
	}
	if mode == ModeRW {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		stamp := filepath.Join(dir, versionFile)
		if _, err := os.Stat(stamp); os.IsNotExist(err) {
			if err := os.WriteFile(stamp, []byte(LayoutVersion+"\n"), 0o644); err != nil {
				return nil, fmt.Errorf("resultcache: stamping layout: %w", err)
			}
		}
	}
	return &Cache{dir: dir, mode: mode}, nil
}

// CheckLayout verifies dir is usable as a cache root: either absent,
// empty, or stamped with the current LayoutVersion. It is shared with
// the doctor's cache check.
func CheckLayout(dir string) error {
	stamp, err := os.ReadFile(filepath.Join(dir, versionFile))
	if err == nil {
		if got := strings.TrimSpace(string(stamp)); got != LayoutVersion {
			return fmt.Errorf("resultcache: %s holds stale cache layout %q (this build writes %q); delete the directory or point -cache-dir at a fresh one",
				dir, got, LayoutVersion)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("resultcache: reading layout stamp: %w", err)
	}
	// No stamp: acceptable only while the directory holds no entries —
	// an unstamped populated directory is a pre-versioning (or foreign)
	// layout.
	entries, derr := os.ReadDir(dir)
	if derr != nil || len(entries) == 0 {
		return nil
	}
	return fmt.Errorf("resultcache: %s holds %d entries but no layout stamp (pre-versioning or foreign layout); delete the directory or point -cache-dir at a fresh one",
		dir, len(entries))
}

// SetTelemetry attaches a telemetry recorder: every counter the cache
// bumps from here on is mirrored into the recorder's process family
// (the cache is shared across scenario families and cannot attribute
// finer). Nil-safe on both sides.
func (c *Cache) SetTelemetry(r *telemetry.Recorder) {
	if c != nil {
		c.tel = r
	}
}

// Dir reports the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Mode reports the cache mode (ModeOff for a nil cache).
func (c *Cache) Mode() Mode {
	if c == nil {
		return ModeOff
	}
	return c.mode
}

// entryPath shards an entry under its key's first two hex digits, the
// fanout that keeps directory listings short at millions of entries.
func (c *Cache) entryPath(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(c.dir, shard, key)
}

// Get returns the stored canonical payload for key, validated as JSON;
// it is GetInto(key, nil).
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	return c.GetInto(key, nil)
}

// GetInto looks key up and, on a hit, decodes the stored payload into v
// (a nil v only validates it) and returns an exactly sized copy of the
// payload bytes. A hit costs one raw read (readEntry), one framing check
// and one JSON pass; beyond what decoding into v allocates, it allocates
// the payload copy and the entry's path. Every failure mode — absent
// entry, unreadable file, an entry that is not byte-for-byte the framing
// Put writes for key (truncated, key-mismatched, hand-edited or
// re-indented), or a payload that does not decode into v — is a counted
// miss: the cache never turns its own damage into a caller's crash. On a
// miss v may have been partly written and must be discarded. An rw-mode
// hit touches the entry's mtime so the LRU eviction pass sees recency,
// not just insertion order; ro mode never writes, metadata included.
func (c *Cache) GetInto(key string, v any) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	path := c.entryPath(key)
	scratch := scratchPool.Get().(*[]byte)
	data, err := readEntry(path, (*scratch)[:0])
	var payload json.RawMessage // non-empty on a hit
	if err == nil {
		if p, ok := decodeEntry(data, key, v); ok {
			// p aliases the scratch buffer, which goes back to the pool.
			payload = make(json.RawMessage, len(p))
			copy(payload, p)
		}
	}
	*scratch = data
	scratchPool.Put(scratch)
	if payload == nil {
		return c.miss()
	}
	if c.mode == ModeRW {
		now := time.Now()
		os.Chtimes(path, now, now) // best effort: LRU recency only
	}
	c.hits.Add(1)
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheHits, 1)
	return payload, true
}

// scratchPool holds the buffers readEntry reads entries into. A buffer
// that grew for a large entry goes back grown.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// readEntry appends the file at path to buf through a raw descriptor —
// open, read until end of file, close — and returns the extended buffer.
// Entries are a few hundred bytes, so the *os.File that os.ReadFile sets
// up and tears down would cost more than the read itself. A directory or
// any other unreadable path is an error.
func readEntry(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return buf, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return buf, err
		case n <= 0:
			return buf, nil
		}
		buf = buf[:len(buf)+n]
	}
}

// miss counts one failed lookup.
func (c *Cache) miss() (json.RawMessage, bool) {
	c.misses.Add(1)
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheMisses, 1)
	return nil, false
}

// Entry framing: Put writes json.Marshal(record{key, payload}), which for
// a plain key is exactly entryHead + key + entryMid + P + entryTail,
// with P the compacted payload.
const (
	entryHead = `{"key":"`
	entryMid  = `","payload":`
	entryTail = `}`
)

// plainKey reports whether key is made only of bytes that json.Marshal
// writes verbatim inside a string, so that its framing in an entry is
// the key itself. Cell keys (hex digests) always are; any other key
// never hits.
func plainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		switch b := key[i]; {
		case b < 0x20 || b > 0x7e, b == '"', b == '\\', b == '<', b == '>', b == '&':
			return false
		}
	}
	return true
}

// decodeEntry checks that data is framed exactly as Put frames it for
// key and makes the one JSON pass over its payload P: json.Unmarshal
// into v, or json.Valid when v is nil. P must not start or end with JSON
// whitespace, which a compacted payload never does; that rule keeps P
// byte-identical to the payload json.Unmarshal would extract from the
// same record.
func decodeEntry(data []byte, key string, v any) (json.RawMessage, bool) {
	n := len(entryHead) + len(key) + len(entryMid)
	if len(data) <= n+len(entryTail) || !plainKey(key) ||
		string(data[:len(entryHead)]) != entryHead ||
		string(data[len(entryHead):len(entryHead)+len(key)]) != key ||
		string(data[len(entryHead)+len(key):n]) != entryMid ||
		string(data[len(data)-len(entryTail):]) != entryTail {
		return nil, false
	}
	p := data[n : len(data)-len(entryTail)]
	if isSpace(p[0]) || isSpace(p[len(p)-1]) {
		return nil, false
	}
	if v == nil {
		if !json.Valid(p) {
			return nil, false
		}
	} else if json.Unmarshal(p, v) != nil {
		return nil, false
	}
	return p, true
}

// isSpace reports whether b is JSON insignificant whitespace.
func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// Put stores payload (a canonical JSON encoding, e.g. from
// checkpoint.CanonicalPayload) under key: the record is written to a
// temp file in the cache root and renamed into its shard, so a reader —
// in this process or another one sharing the directory — observes either
// no entry or a complete one. In ro (or off) mode Put is a no-op.
func (c *Cache) Put(key string, payload json.RawMessage) error {
	if c == nil || c.mode != ModeRW {
		return nil
	}
	line, err := json.Marshal(record{Key: key, Payload: payload})
	if err != nil {
		return fmt.Errorf("resultcache: encoding entry %s: %w", key, err)
	}
	dir := filepath.Dir(c.entryPath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(line); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: writing entry %s: %w", key, err)
	}
	if err := os.Rename(tmpName, c.entryPath(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("resultcache: publishing entry %s: %w", key, err)
	}
	c.puts.Add(1)
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCachePuts, 1)
	return nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Deduped:   c.deduped.Load(),
		Evictions: c.evictions.Load(),
		Verified:  c.verified.Load(),
	}
}

// entryInfo is one entry the eviction pass considers.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// walkEntries lists every entry file (shard depth only, never the
// version stamp or the in-flight and abandoned ".put-*" temp files in
// the root).
func (c *Cache) walkEntries() ([]entryInfo, error) {
	var out []entryInfo
	shards, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, sh.Name()))
		if err != nil {
			continue // a shard deleted underneath us is fine
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, entryInfo{
				path:  filepath.Join(c.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return out, nil
}

// strays lists the ".put-*" temp files in the cache root: writes in
// flight, and what writers killed before their rename left behind.
func (c *Cache) strays() ([]entryInfo, error) {
	files, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var out []entryInfo
	for _, f := range files {
		if f.IsDir() || !strings.HasPrefix(f.Name(), tempPrefix) {
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue // renamed or swept underneath us
		}
		out = append(out, entryInfo{path: filepath.Join(c.dir, f.Name()), size: info.Size(), mtime: info.ModTime()})
	}
	return out, nil
}

// Strays counts the ".put-*" temp files in the cache root (doctor's
// census); an absent directory holds none.
func (c *Cache) Strays() (int, error) {
	if c == nil {
		return 0, nil
	}
	files, err := c.strays()
	if os.IsNotExist(err) {
		return 0, nil
	}
	return len(files), err
}

// Evict sweeps the temp files older than StrayGrace from the cache
// root, then runs the size-capped LRU pass: while the summed entry size
// exceeds MaxBytes, the least-recently-used entry (oldest mtime; an
// rw-mode hit touches its entry) is deleted. No-op unless the mode is
// rw; the LRU pass is skipped when MaxBytes is zero. Returns the number
// of entries evicted.
func (c *Cache) Evict() (int, error) {
	if c == nil || c.mode != ModeRW {
		return 0, nil
	}
	temps, err := c.strays()
	if err != nil {
		return 0, fmt.Errorf("resultcache: sweeping temp files: %w", err)
	}
	for _, t := range temps {
		if time.Since(t.mtime) < StrayGrace {
			continue
		}
		if err := os.Remove(t.path); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("resultcache: sweeping %s: %w", t.path, err)
		}
	}
	if c.MaxBytes <= 0 {
		return 0, nil
	}
	entries, err := c.walkEntries()
	if err != nil {
		return 0, fmt.Errorf("resultcache: evicting: %w", err)
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= c.MaxBytes {
		return 0, nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path // deterministic tie-break
	})
	evicted := 0
	for _, e := range entries {
		if total <= c.MaxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				continue // another process got there first
			}
			return evicted, fmt.Errorf("resultcache: evicting %s: %w", e.path, err)
		}
		total -= e.size
		evicted++
	}
	c.evictions.Add(uint64(evicted))
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheEvicted, uint64(evicted))
	return evicted, nil
}

// Len walks the store and reports entry count and summed size —
// diagnostic use (doctor, tests, the stats trailer's eviction decision).
func (c *Cache) Len() (count int, bytes int64, err error) {
	if c == nil {
		return 0, 0, nil
	}
	entries, err := c.walkEntries()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		bytes += e.size
	}
	return len(entries), bytes, nil
}

// VerifyError is the loud failure of a -cache-verify re-execution: the
// cached payload and the fresh execution's canonical bytes differ, which
// means either the store was tampered with or a supposedly deterministic
// cell is not. It is never swallowed into a miss.
type VerifyError struct {
	Key    string
	Cached json.RawMessage
	Fresh  json.RawMessage
}

// Error renders the mismatch with both payload sizes; the payloads
// themselves can be large, so the message carries lengths, not bodies.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("resultcache: verify mismatch for %s: cached payload (%d bytes) != re-executed payload (%d bytes); the cache entry is wrong or the cell is nondeterministic — delete the cache directory and re-run",
		e.Key, len(e.Cached), len(e.Fresh))
}

// verifySample reports whether a hit on key falls in the deterministic
// 1-in-n verification sample: the FNV-64a hash of the key modulo n.
// Sampling by key (not by arrival order) makes the sample identical
// across runs, parallelism levels and engines. n <= 0 disables, n == 1
// verifies every hit.
func verifySample(key string, n int) bool {
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()%uint64(n) == 0
}

// verify compares a cached payload against a fresh canonical encoding,
// counting a match and returning a *VerifyError on mismatch.
func (c *Cache) verify(key string, cached, fresh json.RawMessage) error {
	if !bytes.Equal(cached, fresh) {
		return &VerifyError{Key: key, Cached: cached, Fresh: fresh}
	}
	c.verified.Add(1)
	c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheVerified, 1)
	return nil
}

// Memo is the per-process dedup layer: the first Do for a key runs fn
// exactly once; concurrent callers with the same key wait for that
// in-flight execution (singleflight), and later callers are served from
// the completed result without re-running — so identical cells appearing
// more than once in one campaign (overlapping sweeps, duplicated
// scenario × agent pairs) execute exactly once per process whether they
// arrive together or in sequence.
//
// Failures are never memoized: a leader's error is returned to every
// waiter of that flight, the key is forgotten, and the next Do runs fn
// again — one attempt's transient failure (an injected fault, a briefly
// unwritable cache directory) must not poison an identical later cell.
type Memo struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-flight or completed execution.
type flight struct {
	done    chan struct{}
	payload json.RawMessage
	err     error
}

// Do runs fn once per key. The returned payload is the canonical JSON
// produced by fn; shared reports whether this call was served by another
// execution (waited on it or read its memoized result) rather than
// running fn itself. Callers must treat a shared payload as read-only
// and decode their own copy.
func (g *Memo) Do(key string, fn func() (json.RawMessage, error)) (payload json.RawMessage, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.payload, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	completed := false
	defer func() {
		// A panicking fn (a simulated-VM trap escaping a cell) must not
		// strand waiters on a never-closed channel: publish an error,
		// forget the flight, and let the panic propagate to the runner's
		// isolation layer. Waiters re-execute on their own.
		if !completed {
			f.err = fmt.Errorf("resultcache: deduplicated execution for %s panicked", key)
		}
		if f.err != nil {
			// Forget failed flights before waking waiters: an identical
			// later cell deserves its own attempt.
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
		close(f.done)
	}()
	f.payload, f.err = fn()
	completed = true
	return f.payload, false, f.err
}

// Resolve serves one cell, cheapest source first, decodes its canonical
// payload into v (a non-nil pointer) and reports the source that served
// it:
//
//   - "cache": a hit decodes the stored payload straight into v.
//   - "verify": a hit in the deterministic 1-in-verifyN sample
//     re-executes the cell and byte-compares the result, failing with a
//     *VerifyError on any difference.
//   - "dedup": an identical cell of this process ran (or is running)
//     through memo and shares its payload.
//   - "run": execute ran for this cell.
//
// Only a complete, successful payload is ever Put, so a failed attempt
// (panic, timeout, injected fault) publishes nothing and a retry
// re-enters the whole path. A failed memo leader's error belongs to the
// leader: each follower re-executes its own attempt and Puts it, so
// per-cell fault injection and retry accounting stay cell-local. A Put
// failure is environmental, not a property of the cell, and is wrapped
// in runner.Transient so retries can ride out a briefly unwritable
// cache directory. A nil cache skips the lookup and the Put but still
// deduplicates through memo.
func (c *Cache) Resolve(memo *Memo, key string, verifyN int, v any,
	execute func() (json.RawMessage, error)) (string, error) {
	if raw, ok := c.GetInto(key, v); ok {
		if !verifySample(key, verifyN) {
			return "cache", nil
		}
		fresh, err := execute()
		if err != nil {
			return "", err
		}
		// A passing Verify means fresh == raw byte for byte, so v already
		// holds fresh's decoding.
		if err := c.verify(key, raw, fresh); err != nil {
			return "", err
		}
		return "verify", nil
	}
	run := func() (json.RawMessage, error) {
		raw, err := execute()
		if err != nil {
			return nil, err
		}
		if err := c.Put(key, raw); err != nil {
			return nil, runner.Transient(err)
		}
		return raw, nil
	}
	source := "run"
	raw, shared, err := memo.Do(key, run)
	switch {
	case shared && err != nil:
		raw, err = run()
	case shared:
		source = "dedup"
		if c != nil {
			c.deduped.Add(1)
			c.tel.Count(telemetry.ProcessFamily, telemetry.MetricProcCacheDeduped, 1)
		}
	}
	if err != nil {
		return "", err
	}
	// A missed lookup may have partly decoded a damaged entry into v.
	reflect.ValueOf(v).Elem().SetZero()
	if err := json.Unmarshal(raw, v); err != nil {
		return "", fmt.Errorf("resultcache: decoding %s payload for %s: %w", source, key, err)
	}
	return source, nil
}
