package obs

import (
	"context"
	"regexp"
	"testing"
)

func TestTraceBasics(t *testing.T) {
	id := NewTraceID()
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("trace ID %q is not 16 hex digits", id)
	}
	if NewTraceID() == id {
		t.Fatal("trace IDs collide")
	}
}

func TestTraceContext(t *testing.T) {
	if TraceIDFrom(context.Background()) != "" {
		t.Fatal("empty context carried a trace ID")
	}
	if ctx := WithTraceID(context.Background(), ""); ctx != context.Background() {
		t.Fatal("empty trace ID stored in context")
	}
	id := NewTraceID()
	if got := TraceIDFrom(WithTraceID(context.Background(), id)); got != id {
		t.Fatalf("trace ID not carried through context: got %q, want %q", got, id)
	}
}
