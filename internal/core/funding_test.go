package core

import (
	"math"
	"testing"

	"supremm/internal/store"
)

func TestUsageByScienceOverTime(t *testing.T) {
	r, _ := realms(t)
	points := r.UsageByScienceOverTime(7)
	if len(points) == 0 {
		t.Fatal("no usage points")
	}
	// Buckets non-decreasing; shares per bucket sum to 1; rows within a
	// bucket ordered by node-hours.
	byBucket := map[int64]float64{}
	var prevBucket int64 = -1 << 62
	var prevNH float64
	for _, p := range points {
		if p.BucketStart < prevBucket {
			t.Fatal("buckets out of order")
		}
		if p.BucketStart > prevBucket {
			prevBucket = p.BucketStart
			prevNH = math.Inf(1)
		}
		if p.NodeHours > prevNH {
			t.Errorf("bucket %d rows not ordered", p.BucketStart)
		}
		prevNH = p.NodeHours
		byBucket[p.BucketStart] += p.Share
		if p.Jobs <= 0 || p.NodeHours < 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	for b, total := range byBucket {
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("bucket %d shares sum to %v", b, total)
		}
	}
	// A 30-day run in 7-day buckets: 4-6 buckets.
	if len(byBucket) < 4 || len(byBucket) > 6 {
		t.Errorf("buckets = %d for a 30-day run", len(byBucket))
	}
	// Molecular Biosciences (the MD-heavy mix) must appear.
	found := false
	for _, p := range points {
		if p.Science == "Molecular Biosciences" {
			found = true
			break
		}
	}
	if !found {
		t.Error("missing the dominant science area")
	}
	// Degenerate bucket size falls back to a week.
	if got := r.UsageByScienceOverTime(0); len(got) == 0 {
		t.Error("zero bucket days should default, not return empty")
	}
}

func TestEffectiveUse(t *testing.T) {
	r, _ := realms(t)
	e := r.EffectiveUse()
	if e.CapacityNodeHours <= 0 {
		t.Fatal("no capacity")
	}
	if e.AllocatedFraction <= 0 || e.AllocatedFraction > 1.02 {
		t.Errorf("allocated fraction = %v", e.AllocatedFraction)
	}
	if e.EffectiveFraction >= e.AllocatedFraction {
		t.Errorf("effective %v should be below allocated %v (idle discount)",
			e.EffectiveFraction, e.AllocatedFraction)
	}
	// The loaded regime: most capacity allocated.
	if e.AllocatedFraction < 0.5 {
		t.Errorf("allocated fraction = %v, want a loaded system", e.AllocatedFraction)
	}
	// Empty realm is all zeros, no panic.
	empty := NewRealm("x", 16, 32, 100, store.New().AsSet(), nil)
	if got := empty.EffectiveUse(); got.CapacityNodeHours != 0 {
		t.Errorf("empty effective use: %+v", got)
	}
}

func TestCompareSystems(t *testing.T) {
	ranger, ls4 := realms(t)
	cmp := CompareSystems(ranger, ls4)
	if len(cmp.Rows) != 2 {
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	r, l := cmp.Rows[0], cmp.Rows[1]
	if r.Cluster != "ranger" || l.Cluster != "lonestar4" {
		t.Errorf("order: %s, %s", r.Cluster, l.Cluster)
	}
	// The cross-system claims: Ranger more efficient, LS4 fuller memory.
	if r.Efficiency <= l.Efficiency {
		t.Errorf("efficiency ordering: %v vs %v", r.Efficiency, l.Efficiency)
	}
	if r.MemFraction >= l.MemFraction {
		t.Errorf("memory ordering: %v vs %v", r.MemFraction, l.MemFraction)
	}
	for _, row := range cmp.Rows {
		if row.Jobs == 0 || row.NodeHours <= 0 || row.MeanTFlops <= 0 {
			t.Errorf("empty row: %+v", row)
		}
	}
}
