package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogEmitAndQuery(t *testing.T) {
	l := NewEventLog(8)
	l.Emit(Event{Kind: KindServeRequest, Model: "a", Outcome: "ok", TraceID: "t1"})
	l.Emit(Event{Kind: KindServeRequest, Model: "b", Outcome: "shed", Level: LevelWarn})
	l.Emit(Event{Kind: KindTrainEpoch, Job: "j1", Epoch: 3, MSE: 0.25})
	l.Emit(Event{Kind: KindJobState, Job: "j1", Outcome: "done"})

	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := l.Emitted(); got != 4 {
		t.Fatalf("Emitted = %d, want 4", got)
	}

	all := l.Query(EventQuery{})
	if len(all) != 4 {
		t.Fatalf("unfiltered query returned %d events, want 4", len(all))
	}
	// Newest first.
	if all[0].Kind != KindJobState || all[3].Kind != KindServeRequest {
		t.Fatalf("query not newest-first: %+v", all)
	}
	for _, ev := range all {
		if ev.Time.IsZero() {
			t.Fatalf("Emit did not stamp Time: %+v", ev)
		}
	}

	cases := []struct {
		q    EventQuery
		want int
	}{
		{EventQuery{Kind: KindServeRequest}, 2},
		{EventQuery{Model: "a"}, 1},
		{EventQuery{Outcome: "shed"}, 1},
		{EventQuery{Job: "j1"}, 2},
		{EventQuery{MinLevel: LevelWarn}, 1},
		{EventQuery{Kind: KindServeRequest, Model: "b"}, 1},
		{EventQuery{Kind: KindServeRequest, Model: "b", Outcome: "ok"}, 0},
		{EventQuery{Limit: 2}, 2},
		{EventQuery{Since: time.Now().Add(time.Hour)}, 0},
	}
	for _, c := range cases {
		if got := len(l.Query(c.q)); got != c.want {
			t.Errorf("Query(%+v) returned %d events, want %d", c.q, got, c.want)
		}
	}
}

func TestEventLogWraparound(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Kind: KindServeRequest, Outcome: "ok", BatchID: uint64(i + 1)})
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d after wraparound, want capacity 4", got)
	}
	if got := l.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10 (overwritten events still count)", got)
	}
	got := l.Query(EventQuery{})
	if len(got) != 4 {
		t.Fatalf("query returned %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := uint64(10 - i); ev.BatchID != want {
			t.Fatalf("event %d has BatchID %d, want %d (newest four, newest first)", i, ev.BatchID, want)
		}
	}
}

func TestEventLogSampling(t *testing.T) {
	l := NewEventLog(64)
	l.SetSampleEvery(4)
	for i := 0; i < 40; i++ {
		l.Emit(Event{Kind: KindServeRequest, Outcome: "ok"})
	}
	if got := l.Emitted(); got != 10 {
		t.Fatalf("Emitted = %d, want 10 (1-in-4 of 40)", got)
	}
	if got := l.Dropped(); got != 30 {
		t.Fatalf("Dropped = %d, want 30", got)
	}

	// Head+tail: warn/error and non-ok outcomes are never sampled out, and
	// info events without an "ok" outcome (epoch records) are kept too.
	before := l.Emitted()
	l.Emit(Event{Kind: KindServeRequest, Outcome: "shed", Level: LevelWarn})
	l.Emit(Event{Kind: KindServeRequest, Outcome: "rejected", Level: LevelWarn})
	l.Emit(Event{Kind: KindJobState, Outcome: "failed", Level: LevelError})
	l.Emit(Event{Kind: KindTrainEpoch, Epoch: 1})
	if got := l.Emitted() - before; got != 4 {
		t.Fatalf("non-ok emissions kept %d of 4; sampling must not touch warnings, errors, or epoch records", got)
	}

	// n <= 1 disables sampling.
	l.SetSampleEvery(0)
	before = l.Emitted()
	for i := 0; i < 5; i++ {
		l.Emit(Event{Kind: KindServeRequest, Outcome: "ok"})
	}
	if got := l.Emitted() - before; got != 5 {
		t.Fatalf("SetSampleEvery(0) kept %d of 5, want all", got)
	}
}

func TestEventLogSinkJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(8)
	l.SetSink(&buf, LevelWarn)
	l.Emit(Event{Kind: KindServeRequest, Model: "m", Outcome: "ok", TraceID: "t-ok"})
	l.Emit(Event{Kind: KindServeRequest, Model: "m", Outcome: "expired", Level: LevelWarn, TraceID: "t-exp"})
	l.Emit(Event{Kind: KindJobState, Job: "j", Outcome: "failed", Level: LevelError, Err: "boom"})

	sc := bufio.NewScanner(&buf)
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("sink line is not valid JSON: %v\n%s", err, sc.Text())
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("sink received %d lines, want 2 (min level warn filters the ok)", len(lines))
	}
	if lines[0].Outcome != "expired" || lines[0].Level != LevelWarn {
		t.Fatalf("first sink line: %+v", lines[0])
	}
	if lines[1].Err != "boom" || lines[1].Level != LevelError {
		t.Fatalf("second sink line: %+v", lines[1])
	}

	// Detach: further events don't write.
	l.SetSink(nil, LevelInfo)
	l.Emit(Event{Kind: KindServeRequest, Outcome: "shed", Level: LevelWarn})
	if buf.Len() != 0 {
		t.Fatalf("detached sink still received %q", buf.String())
	}
}

func TestEventLevelJSONRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelInfo, LevelWarn, LevelError} {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%q", l.String()); string(b) != want {
			t.Fatalf("Marshal(%v) = %s, want %s", l, b, want)
		}
		var back Level
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != l {
			t.Fatalf("round trip %v -> %v", l, back)
		}
	}
	if ParseLevel("warning") != LevelWarn {
		t.Fatal(`ParseLevel("warning") != warn`)
	}
	if ParseLevel("nonsense") != LevelInfo {
		t.Fatal("unknown level must parse as info")
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Kind: KindServeRequest, Outcome: "ok"})
	l.SetSampleEvery(4)
	l.SetSink(&bytes.Buffer{}, LevelInfo)
	if l.Cap() != 0 || l.Len() != 0 || l.Emitted() != 0 || l.Dropped() != 0 {
		t.Fatal("nil log counters must be zero")
	}
	if got := l.Query(EventQuery{}); got != nil {
		t.Fatalf("nil log Query = %v, want nil", got)
	}
}

// TestEventLogConcurrent hammers a small ring with concurrent emitters,
// queries, and sink attach/detach under -race: Emit's slot claim plus atomic
// store must never tear an event, and Query must tolerate racing
// wraparound.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(32)
	l.SetSampleEvery(2)
	l.SetSink(&bytes.Buffer{}, LevelError)

	const emitters, perEmitter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range l.Query(EventQuery{Kind: KindServeRequest}) {
					// Every observed event must be fully formed: the model
					// string and outcome were stored together.
					if !strings.HasPrefix(ev.Model, "m") || ev.Outcome == "" {
						t.Errorf("torn event observed: %+v", ev)
						return
					}
				}
			}
		}()
	}
	// A toggler attaches and detaches a sink while emitters run: Emit's
	// lock-free no-sink check must never race a sink write.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sink := &bytes.Buffer{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.SetSink(sink, LevelInfo)
			l.SetSink(nil, LevelInfo)
		}
	}()
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			model := fmt.Sprintf("m%d", e)
			for i := 0; i < perEmitter; i++ {
				out := "ok"
				lv := LevelInfo
				if i%7 == 0 {
					out, lv = "shed", LevelWarn
				}
				l.Emit(Event{Kind: KindServeRequest, Model: model, Outcome: out, Level: lv})
			}
		}(e)
	}
	// Wait for emitters only, then stop the queriers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if l.Emitted()+l.Dropped() >= emitters*perEmitter {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done

	if got := l.Emitted() + l.Dropped(); got != emitters*perEmitter {
		t.Fatalf("emitted %d + dropped %d = %d, want %d",
			l.Emitted(), l.Dropped(), got, emitters*perEmitter)
	}
	if l.Dropped() == 0 {
		t.Fatal("sampling dropped nothing with SetSampleEvery(2)")
	}
	if got := l.Len(); got != 32 {
		t.Fatalf("Len = %d after heavy wraparound, want capacity 32", got)
	}
}

// BenchmarkEmitSampledSink times Emit as the instrumented serving path
// uses it: ok events sampled 1-in-8 into a log with a JSON-lines sink.
func BenchmarkEmitSampledSink(b *testing.B) {
	l := NewEventLog(0)
	l.SetSampleEvery(8)
	l.SetSink(io.Discard, LevelInfo)
	ev := Event{Level: LevelInfo, Kind: KindServeRequest, Model: "m", Outcome: "ok", TraceID: "0123456789abcdef",
		Rows: 1, QueueWait: time.Millisecond, DeviceTime: time.Millisecond, BatchID: 7, Occupancy: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(ev)
	}
}
