package main

import (
	"reflect"
	"testing"
)

var testBases = []string{"a", "b", "c", "d", "e", "f", "g"}

// misses is the seed's miss set and order over the first passes: on
// which pass a variant comes, which base it copies and where it is
// inserted; names left out, as they embed the seed.
func misses(seed int64, passes int) [][3]int {
	var out [][3]int
	for p := 0; p < passes; p++ {
		for _, v := range rerunPlan(seed, p, testBases) {
			out = append(out, [3]int{p, v.Base, v.Pos})
		}
	}
	return out
}

func TestRerunPlanSeedDeterminism(t *testing.T) {
	if a, b := misses(1, 200), misses(1, 200); !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 1 gave two plans:\n%v\n%v", a, b)
	}
	if a, b := misses(1, 200), misses(2, 200); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 gave the same miss set and order: %v", a)
	}
	for p := 0; p < missEvery; p++ {
		if a, b := rerunPlan(1, p, testBases), rerunPlan(1, p, testBases); !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d of seed 1 differs between calls: %v %v", p, a, b)
		}
	}
}

// TestRerunPlanCoversBasesEvenly checks that one pass in missEvery has
// a variant, that every base is copied once per cycle through them for
// any seed, and that names never repeat.
func TestRerunPlanCoversBasesEvenly(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		count := map[int]int{}
		names := map[string]bool{}
		passes := 0
		for p := -missEvery; p < 5*missEvery*len(testBases)-missEvery; p++ {
			vs := rerunPlan(seed, p, testBases)
			if len(vs) > 0 {
				passes++
			}
			for _, v := range vs {
				count[v.Base]++
				if names[v.Name] {
					t.Fatalf("seed %d: name %s repeats", seed, v.Name)
				}
				names[v.Name] = true
			}
		}
		if passes != 5*len(testBases) {
			t.Errorf("seed %d: %d passes with a variant, want %d", seed, passes, 5*len(testBases))
		}
		for b := range testBases {
			if count[b] != 5 {
				t.Errorf("seed %d: base %d copied %d times, want 5", seed, b, count[b])
			}
		}
	}
}

func TestCampaignOrderSeedDeterminism(t *testing.T) {
	if a, b := campaignOrder(1, 4, 23), campaignOrder(1, 4, 23); !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 1 pass 4 gave two orders: %v %v", a, b)
	}
	if a, b := campaignOrder(1, 4, 23), campaignOrder(2, 4, 23); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 gave the same order: %v", a)
	}
	if a, b := campaignOrder(1, 4, 23), campaignOrder(1, 5, 23); reflect.DeepEqual(a, b) {
		t.Fatalf("passes 4 and 5 gave the same order: %v", a)
	}
}
