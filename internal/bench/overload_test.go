package bench

import "testing"

// TestOverloadServingRuns checks the overload study end to end: under 2x
// saturation, with or without 25% client cancellation and with shedding,
// mean batch occupancy stays at or above 0.8*m_max, and canceled requests
// charge zero device ops (every executed row was a delivered response).
func TestOverloadServingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := OverloadStudy(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("want 3 points, got %d", len(points))
	}

	var canceled *OverloadPoint
	for i := range points {
		if points[i].CancelPct == 25 && !points[i].Shed {
			canceled = &points[i]
		}
	}
	if canceled == nil {
		t.Fatalf("missing the 25%%-cancellation point: %+v", points)
	}
	if canceled.Abandoned == 0 {
		t.Fatal("no requests were abandoned at 25% client cancellation")
	}
	if canceled.Delivered == 0 || canceled.Goodput <= 0 {
		t.Fatalf("no goodput under overload: %+v", *canceled)
	}
	// Cancellation propagation: a canceled request must never reach the
	// device, so the rows executed (occupancy histogram mass) are exactly
	// the delivered responses — zero device ops charged to canceled work.
	if canceled.ExecutedRows != canceled.Delivered {
		t.Fatalf("executed %d rows but delivered %d responses: canceled requests reached the device",
			canceled.ExecutedRows, canceled.Delivered)
	}

	// The paper's m_max argument under overload: saturation must produce
	// full waves in every cell — the clean baseline, the queue carrying
	// canceled corpses, and deadline-aware shedding, which must refuse only
	// requests the queue cannot serve in time.
	for _, p := range points {
		if floor := 0.8 * float64(p.MaxBatch); p.MeanOccupancy < floor {
			t.Fatalf("mean occupancy %.1f below 0.8*m_max = %.1f at 2x saturation (cancel %d%%, shed %v)",
				p.MeanOccupancy, floor, p.CancelPct, p.Shed)
		}
	}

	rep, err := OverloadServing(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("report rows = %d, want 3", len(rep.Rows))
	}
}
