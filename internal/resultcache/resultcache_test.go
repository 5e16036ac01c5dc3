package resultcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runner"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// testKey derives a real cell key so tests exercise the same 64-hex
// shape production uses.
func testKey(t *testing.T, seed any) string {
	t.Helper()
	key, err := checkpoint.CellKey(seed)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestPutGetRoundtrip(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "roundtrip")
	payload := json.RawMessage(`{"median":42,"name":"compress"}`)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload changed: %s != %s", got, payload)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put", s)
	}
	// Reopening sees the persisted entry.
	c2, err := Open(c.Dir(), ModeRO)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("persisted entry missed after reopen")
	}
}

// TestCorruptEntryIsMiss truncates a valid entry at every possible byte
// length: each prefix must read as a miss, never a crash or a wrong
// payload.
func TestCorruptEntryIsMiss(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "corrupt")
	if err := c.Put(key, json.RawMessage(`{"median":42}`)); err != nil {
		t.Fatal(err)
	}
	path := c.entryPath(key)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := len(full) - 1; n >= 0; n-- {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatalf("truncation to %d of %d bytes still served a hit", n, len(full))
		}
	}
	// A syntactically valid record whose embedded key names another cell
	// (a renamed file, a buggy copy) is also a miss.
	other := testKey(t, "some-other-cell")
	rec, _ := json.Marshal(record{Key: other, Payload: json.RawMessage(`{"median":1}`)})
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("key-mismatched record served a hit")
	}
}

// TestGetIntoDecodesOnce covers the decode-into-caller read path: a hit
// fills v and returns the stored bytes, and a well-framed entry whose
// payload does not decode into v is a counted miss.
func TestGetIntoDecodesOnce(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "getinto")
	payload := json.RawMessage(`{"median":42,"name":"\u003cinit\u003e"}`)
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	var v struct {
		Median int    `json:"median"`
		Name   string `json:"name"`
	}
	raw, ok := c.GetInto(key, &v)
	if !ok {
		t.Fatal("miss on a stored entry")
	}
	if string(raw) != string(payload) || v.Median != 42 || v.Name != "<init>" {
		t.Fatalf("GetInto = %s, %+v", raw, v)
	}
	var wrong struct {
		Median string `json:"median"`
	}
	if _, ok := c.GetInto(key, &wrong); ok {
		t.Fatal("a payload that does not decode into v served a hit")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", s)
	}
}

// TestNonCanonicalEntryIsMiss pins exact framing: a record the JSON
// codec would accept but Put would never write (truncations are
// TestCorruptEntryIsMiss's) is a miss.
func TestNonCanonicalEntryIsMiss(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "framing")
	path := c.entryPath(key)
	if err := c.Put(key, json.RawMessage(`{"median":42}`)); err != nil {
		t.Fatal(err)
	}
	canonical, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []string{
		`{"key":"` + key + `","payload":{"median":42}}` + "\n",
		`{"key":"` + key + `","payload": {"median":42}}`,
		`{"key":"` + key + `","payload":{"median":42} }`,
		`{"payload":{"median":42},"key":"` + key + `"}`,
		`{ "key":"` + key + `","payload":{"median":42}}`,
	} {
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("non-canonical entry %q served a hit", entry)
		}
	}
	if err := os.WriteFile(path, canonical, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("the canonical entry missed")
	}
}

// TestRawReadEdges covers readEntry's edges: an entry larger than the
// pooled scratch buffer still hits with its exact bytes, and an empty
// file or a directory at the entry path is a miss.
func TestRawReadEdges(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "large")
	large := json.RawMessage(`"` + strings.Repeat("0123456789abcdef", 2<<10) + `"`)
	if err := c.Put(key, large); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a fresh buffer, then the grown pooled one
		got, ok := c.Get(key)
		if !ok || string(got) != string(large) || cap(got) != len(got) {
			t.Fatalf("read %d: %d-byte entry served ok=%v, %d bytes (cap %d)", i, len(large), ok, len(got), cap(got))
		}
	}
	empty := testKey(t, "empty")
	path := c.entryPath(empty)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(empty); ok {
		t.Fatal("an empty entry file served a hit")
	}
	dir := testKey(t, "directory")
	if err := os.MkdirAll(c.entryPath(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(dir); ok {
		t.Fatal("a directory at the entry path served a hit")
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats %+v, want 2 hits / 2 misses", s)
	}
}

// TestWarmHitAllocation bounds what a warm hit on a ~500-byte entry
// allocates: the exact payload copy, the decode into v, and the entry's
// path (built once, converted for the open and, in rw mode, for the
// touch) — never a read buffer per lookup.
func TestWarmHitAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	type cell struct {
		Name   string
		Cycles []uint64
	}
	want := cell{Name: "jbb2005", Cycles: make([]uint64, 40)}
	for i := range want.Cycles {
		want.Cycles[i] = uint64(i) * 1_000_000_007
	}
	payload, err := checkpoint.CanonicalPayload(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) < 400 || len(payload) > 600 {
		t.Fatalf("payload is %d bytes, want about 500", len(payload))
	}
	bytesPerOp := func(f func()) float64 {
		const n = 200
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	decode := bytesPerOp(func() {
		var v cell
		if err := json.Unmarshal(payload, &v); err != nil {
			t.Fatal(err)
		}
	})
	dir := t.TempDir()
	key := testKey(t, "alloc")
	rw, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeRO, ModeRW} {
		c, err := Open(dir, mode)
		if err != nil {
			t.Fatal(err)
		}
		var v cell
		if _, ok := c.GetInto(key, &v); !ok || !reflect.DeepEqual(v, want) {
			t.Fatalf("%s: warm GetInto = %+v, %v", mode, v, ok)
		}
		hit := bytesPerOp(func() {
			var v cell
			if _, ok := c.GetInto(key, &v); !ok {
				t.Fatalf("%s: warm GetInto missed", mode)
			}
		})
		paths := 2.0 // entryPath, and its conversion for the open
		if mode == ModeRW {
			paths++ // and for the touch
		}
		// Size classes round each allocation up by at most 1/8.
		budget := decode + 1.125*(float64(len(payload))+paths*float64(len(c.entryPath(key))+1)) + 64
		if hit > budget {
			t.Errorf("%s: a warm hit allocates %.0f bytes; the decode alone allocates %.0f, the budget is %.0f",
				mode, hit, decode, budget)
		}
	}
}

// FuzzEntryPayload checks the framing parser against the record codec
// it replaces: whenever it accepts (data, key), json.Unmarshal of data
// into a record succeeds with the same key and byte-identical payload;
// and every record Put would write for a plain key is accepted.
func FuzzEntryPayload(f *testing.F) {
	c, err := Open(f.TempDir(), ModeRW)
	if err != nil {
		f.Fatal(err)
	}
	key, err := checkpoint.CellKey("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Put(key, json.RawMessage(`{"median":42,"runs":[1,2.5e3,null]}`)); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written, key)
	f.Add([]byte(`{"key":"k","payload":{"method":"\u003cinit\u003e"}}`), "k")
	f.Add([]byte(`{"key":"k","payload":"" }`), "k")
	f.Add([]byte(`{"key":"k","payload": 1}`), "k")
	f.Add([]byte(`{"key":"a\"b","payload":1}`), `a\"b`)
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		var rec record
		oldErr := json.Unmarshal(data, &rec)
		if p, ok := decodeEntry(data, key, nil); ok {
			if oldErr != nil {
				t.Fatalf("accepted %q for %q; json.Unmarshal rejects it: %v", data, key, oldErr)
			}
			if rec.Key != key || string(rec.Payload) != string(p) {
				t.Fatalf("accepted %q for %q as payload %q; json.Unmarshal reads key %q, payload %q",
					data, key, p, rec.Key, rec.Payload)
			}
			return
		}
		if oldErr != nil || rec.Key != key || !plainKey(key) {
			return
		}
		canonical, err := json.Marshal(record{Key: key, Payload: rec.Payload})
		if err == nil && string(canonical) == string(data) {
			t.Fatalf("rejected %q for %q, which Put writes byte for byte", data, key)
		}
	})
}

func TestROModeNeverWrites(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "ro")
	if err := rw.Put(key, json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, ModeRO)
	if err != nil {
		t.Fatal(err)
	}
	// A hit in ro mode must not touch the entry's mtime either.
	past := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := os.Chtimes(rw.entryPath(key), past, past); err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.Get(key); !ok {
		t.Fatal("ro mode missed an existing entry")
	}
	info, err := os.Stat(rw.entryPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(past) {
		t.Fatalf("ro hit moved the entry's mtime from %v to %v", past, info.ModTime())
	}
	if err := ro.Put(testKey(t, "ro-new"), json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	ro.MaxBytes = 1
	if n, err := ro.Evict(); err != nil || n != 0 {
		t.Fatalf("ro eviction removed %d entries (err %v), want none", n, err)
	}
	count, _, err := rw.Len()
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("%d entries after ro Put/Evict, want the original 1", count)
	}
	// ro against a missing directory is an empty cache, not an error, and
	// must not create anything.
	absent := filepath.Join(t.TempDir(), "never-created")
	ro2, err := Open(absent, ModeRO)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ro2.Get(key); ok {
		t.Fatal("hit from a nonexistent directory")
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatal("ro mode created the cache directory")
	}
}

// TestLRUEvictionOrder pins eviction to recency, not insertion: the
// oldest entry goes first, and a Get refreshes its entry's position.
func TestLRUEvictionOrder(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`"0123456789"`)
	keys := make([]string, 4)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("lru-%d", i))
		if err := c.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Deterministic mtimes far apart: key i is the i-th oldest.
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.entryPath(keys[i]), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest: a hit must move it out of eviction's way.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("miss on a present entry")
	}
	_, total, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	c.MaxBytes = total/2 + 1 // force roughly half the entries out
	evicted, err := c.Evict()
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 {
		t.Fatalf("evicted %d entries, want 2", evicted)
	}
	for i, want := range []bool{true, false, false, true} {
		_, ok := c.Get(keys[i])
		if ok != want {
			t.Fatalf("after eviction key %d present=%v, want %v", i, ok, want)
		}
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("stats count %d evictions, want 2", s.Evictions)
	}
}

func TestStaleLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionFile), []byte("jvmsim-resultcache-v0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeRO, ModeRW} {
		if _, err := Open(dir, mode); err == nil {
			t.Fatalf("mode %s opened a stale layout", mode)
		}
	}
	// Entries with no stamp at all: a pre-versioning or foreign layout.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, ModeRW); err == nil {
		t.Fatal("opened an unstamped populated directory")
	}
	// An empty directory is fine and gets stamped by rw.
	dir3 := t.TempDir()
	if _, err := Open(dir3, ModeRW); err != nil {
		t.Fatal(err)
	}
	stamp, err := os.ReadFile(filepath.Join(dir3, versionFile))
	if err != nil || string(stamp) != LayoutVersion+"\n" {
		t.Fatalf("rw open left stamp %q (err %v)", stamp, err)
	}
}

// TestConcurrentTwoCaches drives two Cache instances over one directory
// — the two-processes-sharing-a-store shape — from concurrent
// goroutines under the race detector.
func TestConcurrentTwoCaches(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = testKey(t, fmt.Sprintf("conc-%d", i))
	}
	var wg sync.WaitGroup
	for w, c := range []*Cache{a, b, a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				for i, k := range keys {
					payload := json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i))
					if got, ok := c.Get(k); ok {
						if string(got) != string(payload) {
							t.Errorf("worker %d read torn payload %s for cell %d", w, got, i)
							return
						}
					} else if err := c.Put(k, payload); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	count, _, err := a.Len()
	if err != nil {
		t.Fatal(err)
	}
	if count != len(keys) {
		t.Fatalf("%d entries after concurrent writes, want %d", count, len(keys))
	}
}

func TestNilCacheIsOff(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Put("k", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evict(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
	if got, _ := Open("ignored", ModeOff); got != nil {
		t.Fatal("ModeOff returned a live cache")
	}
}

func TestVerifySampleDeterministic(t *testing.T) {
	key := testKey(t, "sample")
	if verifySample(key, 0) {
		t.Fatal("n=0 sampled")
	}
	if !verifySample(key, 1) {
		t.Fatal("n=1 skipped")
	}
	for _, n := range []int{2, 7, 100} {
		first := verifySample(key, n)
		for i := 0; i < 5; i++ {
			if verifySample(key, n) != first {
				t.Fatalf("n=%d sample decision changed between calls", n)
			}
		}
	}
	// Over many keys, a 1-in-2 sample must select some and skip some.
	selected := 0
	for i := 0; i < 64; i++ {
		if verifySample(testKey(t, i), 2) {
			selected++
		}
	}
	if selected == 0 || selected == 64 {
		t.Fatalf("1-in-2 sample selected %d of 64 keys", selected)
	}
}

func TestVerifyMismatch(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "verify")
	if err := c.verify(key, json.RawMessage(`1`), json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	err = c.verify(key, json.RawMessage(`1`), json.RawMessage(`2`))
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("mismatch returned %v, want *VerifyError", err)
	}
	if ve.Key != key {
		t.Fatalf("VerifyError names key %s, want %s", ve.Key, key)
	}
	if s := c.Stats(); s.Verified != 1 {
		t.Fatalf("%d verified, want 1 (mismatches must not count)", s.Verified)
	}
}

func TestMemoSingleflight(t *testing.T) {
	m := new(Memo)
	var executions atomic.Int64
	var wg sync.WaitGroup
	release := make(chan struct{})
	sharedCount := atomic.Int64{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, shared, err := m.Do("k", func() (json.RawMessage, error) {
				<-release // hold the flight open until all callers queued
				executions.Add(1)
				return json.RawMessage(`"once"`), nil
			})
			if err != nil {
				t.Error(err)
			}
			if string(payload) != `"once"` {
				t.Errorf("payload %s", payload)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Give the goroutines time to pile onto the flight, then release it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != 7 {
		t.Fatalf("%d callers shared, want 7", got)
	}
	// Sequential callers are served from the memoized flight.
	_, shared, err := m.Do("k", func() (json.RawMessage, error) {
		t.Fatal("memoized key re-executed")
		return nil, nil
	})
	if err != nil || !shared {
		t.Fatalf("memoized call shared=%v err=%v", shared, err)
	}
}

func TestMemoErrorNotMemoized(t *testing.T) {
	m := new(Memo)
	boom := errors.New("injected")
	if _, shared, err := m.Do("k", func() (json.RawMessage, error) { return nil, boom }); !errors.Is(err, boom) || shared {
		t.Fatalf("first call shared=%v err=%v", shared, err)
	}
	payload, shared, err := m.Do("k", func() (json.RawMessage, error) { return json.RawMessage(`2`), nil })
	if err != nil || shared || string(payload) != `2` {
		t.Fatalf("retry after error: payload=%s shared=%v err=%v", payload, shared, err)
	}
}

// TestMemoPanicReleasesWaiters pins the panic contract: a panicking
// execution propagates to its own caller, while waiters receive an error
// (never a hang) and the key is forgotten for the next attempt.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	m := new(Memo)
	entered := make(chan struct{})
	joined := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		<-entered
		close(joined)
		_, shared, err := m.Do("k", func() (json.RawMessage, error) {
			t.Error("waiter executed while a flight was in progress")
			return nil, nil
		})
		if !shared {
			err = errors.New("waiter was not shared")
		}
		waiterDone <- err
	}()
	go func() {
		// Release the leader only once the waiter is (about to be) parked
		// on the flight, so the panic races nothing.
		<-joined
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the executing caller")
			}
		}()
		m.Do("k", func() (json.RawMessage, error) {
			close(entered)
			<-release
			panic("cell trap")
		})
	}()
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter got a nil error from a panicked flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung on a panicked flight")
	}
	// The key is free again.
	payload, shared, err := m.Do("k", func() (json.RawMessage, error) { return json.RawMessage(`3`), nil })
	if err != nil || shared || string(payload) != `3` {
		t.Fatalf("post-panic attempt: payload=%s shared=%v err=%v", payload, shared, err)
	}
}

// resolveExec returns an execute func for Resolve that counts its calls
// and produces payload.
func resolveExec(calls *atomic.Int64, payload string) func() (json.RawMessage, error) {
	return func() (json.RawMessage, error) {
		calls.Add(1)
		return json.RawMessage(payload), nil
	}
}

// TestResolveSources pins the source Resolve reports for each way a cell
// is served — run, cache hit, verified hit, in-process dedup — and that
// each decodes the payload into the caller's value.
func TestResolveSources(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "sources")
	memo := new(Memo)
	var calls atomic.Int64
	exec := resolveExec(&calls, `"text"`)
	steps := []struct {
		cache   *Cache
		memo    *Memo
		verifyN int
		source  string
		calls   int64
	}{
		{c, memo, 0, "run", 1},
		{c, new(Memo), 0, "cache", 1},
		{c, new(Memo), 1, "verify", 2},
		// An empty cache in front of the first memo: the lookup misses and
		// the memoized execution serves the cell.
		{nil, memo, 0, "dedup", 2},
	}
	for _, st := range steps {
		var v string
		source, err := st.cache.Resolve(st.memo, key, st.verifyN, &v, exec)
		if err != nil {
			t.Fatalf("%s: %v", st.source, err)
		}
		if source != st.source || v != "text" || calls.Load() != st.calls {
			t.Fatalf("got source %q, value %q after %d executions; want %q, \"text\", %d",
				source, v, calls.Load(), st.source, st.calls)
		}
	}
	if s := c.Stats(); s.Puts != 1 || s.Hits != 2 || s.Misses != 1 || s.Verified != 1 {
		t.Fatalf("stats %+v, want 1 put, 2 hits, 1 miss, 1 verified", s)
	}

	// A verified hit whose re-execution differs fails loudly.
	var v string
	_, err = c.Resolve(new(Memo), key, 1, &v, resolveExec(&calls, `"other"`))
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("verify mismatch returned %v, want *VerifyError", err)
	}
}

// TestResolveFollowerReexecutesAndPuts pins the dedup-follower path: when
// the memo leader fails, a follower waiting on its flight runs its own
// attempt, reports "run" and stores its payload, so the next warm run
// hits the cell. The follower is made deterministic by handing it the
// flight exactly as a waiter sees it once the leader has failed: done,
// with the leader's error.
func TestResolveFollowerReexecutesAndPuts(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "follower")
	boom := errors.New("injected leader failure")
	failed := &flight{done: make(chan struct{}), err: boom}
	close(failed.done)
	memo := &Memo{m: map[string]*flight{key: failed}}

	var calls atomic.Int64
	var v string
	source, err := c.Resolve(memo, key, 0, &v, resolveExec(&calls, `"mine"`))
	if err != nil || source != "run" || v != "mine" || calls.Load() != 1 {
		t.Fatalf("follower: source %q, value %q, %d executions, err %v; want run, mine, 1, nil",
			source, v, calls.Load(), err)
	}
	if raw, ok := c.Get(key); !ok || string(raw) != `"mine"` {
		t.Fatalf("follower's payload not on disk: %s, %v", raw, ok)
	}
	if s := c.Stats(); s.Puts != 1 || s.Deduped != 0 {
		t.Fatalf("stats %+v, want 1 put and no dedup", s)
	}
}

// TestResolvePutErrorIsTransient proves a failed Put — here into a shard
// a regular file occupies — fails the cell with a retryable error.
func TestResolvePutErrorIsTransient(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "unwritable")
	if err := os.WriteFile(filepath.Join(dir, key[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	var v string
	_, err = c.Resolve(new(Memo), key, 0, &v, resolveExec(&calls, `"x"`))
	if err == nil || !runner.IsTransient(err) {
		t.Fatalf("Put failure returned %v, want a transient error", err)
	}
}

// TestResolveMissDiscardsPartialDecode proves a damaged entry that
// partly decoded into the caller's value before missing leaves nothing
// behind: the executed payload is decoded into a zeroed value.
func TestResolveMissDiscardsPartialDecode(t *testing.T) {
	c, err := Open(t.TempDir(), ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "partial")
	// Valid JSON framed exactly as Put frames it, but B has the wrong type:
	// decoding sets A, then fails.
	if err := c.Put(key, json.RawMessage(`{"a":5,"b":7}`)); err != nil {
		t.Fatal(err)
	}
	type cell struct {
		A int    `json:"a,omitempty"`
		B string `json:"b"`
	}
	var calls atomic.Int64
	var v cell
	source, err := c.Resolve(new(Memo), key, 0, &v, resolveExec(&calls, `{"b":"fresh"}`))
	if err != nil || source != "run" {
		t.Fatalf("source %q, err %v; want run", source, err)
	}
	if v != (cell{B: "fresh"}) {
		t.Fatalf("decoded %+v, want only the fresh payload", v)
	}
}
