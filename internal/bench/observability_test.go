package bench

import "testing"

// TestObsOverheadUnder5Percent checks the observability cost bound: full
// instrumentation (a wide event per request, OpenMetrics with exemplars
// scraped continuously, SLO burn rates evaluated at a 10ms cadence with
// an armed flight recorder) must cost the serving hot path less than 5%
// wall throughput. Wall-clock noise dwarfs an overhead
// this small, so the study measures several (baseline, instrumented)
// pairs and the best pair decides — a systematic regression past 5%
// fails every pair, while scheduler jitter does not.
func TestObsOverheadUnder5Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points, err := ObsOverheadStudy(Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("want 6 points (3 attempts x 2 modes), got %d", len(points))
	}
	best := 1.0
	for i := 0; i+1 < len(points); i += 2 {
		base, inst := points[i], points[i+1]
		if base.Instrumented || !inst.Instrumented {
			t.Fatalf("point pair %d out of order: %+v %+v", i/2, base, inst)
		}
		if base.Requests == 0 || inst.Requests == 0 {
			t.Fatalf("empty run: %+v %+v", base, inst)
		}
		if inst.Scrapes == 0 {
			t.Fatalf("instrumented run never scraped /metrics")
		}
		if base.EventsEmitted != 0 || base.EventsDropped != 0 {
			t.Fatalf("baseline run emitted events: %+v", base)
		}
		if inst.EventsEmitted == 0 {
			t.Fatalf("instrumented run kept no wide events: %+v", inst)
		}
		if inst.EventsDropped == 0 {
			t.Fatalf("instrumented run dropped no events: 1-in-%d ok sampling inactive: %+v",
				obsSampleEvery, inst)
		}
		if base.SLOTicks != 0 {
			t.Fatalf("baseline run evaluated SLOs: %+v", base)
		}
		if inst.SLOTicks == 0 {
			t.Fatalf("instrumented run never evaluated SLOs: %+v", inst)
		}
		if inst.SLOEvalCost <= 0 {
			t.Fatalf("instrumented run reports no SLO evaluation cost: %+v", inst)
		}
		if ov := OverheadFraction(base, inst); ov < best {
			best = ov
		}
	}
	t.Logf("best-of-3 instrumentation overhead: %.2f%%", 100*best)
	if best >= 0.05 {
		t.Fatalf("instrumentation overhead %.2f%% >= 5%%", 100*best)
	}
}
