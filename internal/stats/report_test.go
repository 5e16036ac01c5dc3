package stats

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestMergeReportsNilAdd(t *testing.T) {
	into := &core.Report{AgentName: "IPA", TotalBytecodeCycles: 5}
	if got := MergeReports(into, nil); got != into {
		t.Fatalf("MergeReports(into, nil) = %p, want into", got)
	}
	if MergeReports(nil, nil) != nil {
		t.Fatal("MergeReports(nil, nil) != nil")
	}
}

// MergeReports(nil, add) must copy the totals, never alias the
// agent-owned report, and carry no per-thread rows.
func TestMergeReportsCopiesFirst(t *testing.T) {
	add := &core.Report{
		AgentName:           "IPA",
		TotalBytecodeCycles: 10,
		TotalNativeCycles:   4,
		JNICalls:            3,
		NativeMethodCalls:   2,
		PerThread:           []core.ThreadStats{{ThreadID: 1, Name: "main"}},
	}
	got := MergeReports(nil, add)
	if got == add {
		t.Fatal("MergeReports(nil, add) aliased add")
	}
	want := core.Report{AgentName: "IPA", TotalBytecodeCycles: 10, TotalNativeCycles: 4,
		JNICalls: 3, NativeMethodCalls: 2}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("MergeReports(nil, add) = %+v, want %+v", got, want)
	}
	got.TotalBytecodeCycles = 999
	if add.TotalBytecodeCycles != 10 || len(add.PerThread) != 1 {
		t.Fatalf("mutating the merge result changed the source: %+v", add)
	}
}

func TestMergeReportsSums(t *testing.T) {
	a := &core.Report{TotalBytecodeCycles: 10, TotalNativeCycles: 1, JNICalls: 2,
		NativeMethodCalls: 3, PerThread: []core.ThreadStats{{ThreadID: 1}}}
	b := &core.Report{TotalBytecodeCycles: 30, TotalNativeCycles: 5, JNICalls: 7,
		NativeMethodCalls: 11, PerThread: []core.ThreadStats{{ThreadID: 2}, {ThreadID: 3}}}
	got := MergeReports(a, b)
	if got != a {
		t.Fatal("MergeReports did not accumulate into the first argument")
	}
	if got.TotalBytecodeCycles != 40 || got.TotalNativeCycles != 6 ||
		got.JNICalls != 9 || got.NativeMethodCalls != 14 || got.PerThread != nil {
		t.Fatalf("merged = %+v", got)
	}
}

// Zero-cycle reports merge without dividing by zero anywhere downstream.
func TestMergeReportsZeroCycles(t *testing.T) {
	got := MergeReports(&core.Report{}, &core.Report{})
	if got.TotalCycles() != 0 {
		t.Fatalf("zero merge = %+v", got)
	}
	if f := got.NativeFraction(); f != 0 {
		t.Fatalf("NativeFraction of empty report = %f", f)
	}
}

func TestGeoMeanColumns(t *testing.T) {
	rows := [][]float64{
		{1, 10, 100},
		{4, 40, 400},
	}
	got, err := GeoMeanColumns(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 20, 200}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-9 {
			t.Fatalf("col %d = %f, want %f", j, got[j], want[j])
		}
	}
}

func TestGeoMeanColumnsEmpty(t *testing.T) {
	if _, err := GeoMeanColumns(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestGeoMeanColumnsRagged(t *testing.T) {
	if _, err := GeoMeanColumns([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestGeoMeanColumnsNonPositive(t *testing.T) {
	if _, err := GeoMeanColumns([][]float64{{1, 0}}); err == nil {
		t.Fatal("zero sample accepted")
	}
}
