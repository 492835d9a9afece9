package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// traceSeq and traceSalt make trace IDs unique within a process and
// unlikely to collide across processes.
var (
	traceSeq  atomic.Uint64
	traceSalt = uint64(time.Now().UnixNano())
)

// NewTraceID returns a 16-hex-digit request ID: splitmix64 over a
// process-salted sequence, so IDs are unique in-process without a lock.
// The ID links a request's response (trace_id, X-Trace-Id), its wide
// event (Event.TraceID, /debug/events?trace_id=) and its latency
// exemplar at /metrics.
func NewTraceID() string {
	z := traceSeq.Add(1)*0x9e3779b97f4a7c15 ^ traceSalt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = hex[z&0xf]
		z >>= 4
	}
	return string(b[:])
}

// ctxKey keys the trace ID stored in a context.
type ctxKey struct{}

// WithTraceID returns ctx carrying id, so every prediction made under
// one HTTP request reports the ID that request echoed to its caller.
// An empty id leaves ctx unchanged.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// TraceIDFrom returns the trace ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
