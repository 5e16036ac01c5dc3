package resultcache_test

import (
	"encoding/json"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/harness"
	"repro/internal/resultcache"
)

// BenchmarkWarmHit times one warm hit: GetInto on an rw-mode entry
// holding a Measurement payload (the compress cell under IPA on the jit
// engine), from the path to the decoded value. The entry was just
// written, so no hit touches it.
func BenchmarkWarmHit(b *testing.B) {
	payload := json.RawMessage(`{"Benchmark":"compress","Agent":0,"AgentName":"ipa","MedianCycles":2914124,"MedianThroughput":131.08570534404163,` +
		`"Report":{"AgentName":"IPA","TotalBytecodeCycles":2535525,"TotalNativeCycles":139607,"JNICalls":13,"NativeMethodCalls":4584},` +
		`"Truth":{"BytecodeCycles":2623024,"NativeCycles":197160,"OverheadCycles":93940,"GCCycles":0,"NativeMethodCalls":13752,"JNICalls":13},` +
		`"Threads":1,"Runs":1,"GC":{"AllocatedArrays":382,"AllocatedWords":7640},` +
		`"Tier":{"Engine":1,"MethodsCompiled":4,"CompiledFrames":28626,"FallbackChunks":276}}`)
	c, err := resultcache.Open(b.TempDir(), resultcache.ModeRW)
	if err != nil {
		b.Fatal(err)
	}
	key, err := checkpoint.CellKey("warm hit")
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Put(key, payload); err != nil {
		b.Fatal(err)
	}
	var m harness.Measurement
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := c.GetInto(key, &m); !ok {
			b.Fatal("warm GetInto missed")
		}
	}
	if m.Report == nil || m.Tier.CompiledFrames != 28626 {
		b.Fatalf("decoded %+v", m)
	}
}
