package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// request is one queued Predict call.
type request struct {
	x        []float64
	ctx      context.Context // caller's context; canceled means abandoned
	id       string          // trace ID on the wide event and latency exemplar
	enq      time.Time
	deadline time.Time // zero means none
	out      []float64
	err      error
	done     chan struct{}
	// pending points at the server's in-flight request count once this
	// request has been admitted to a queue; settle decrements it exactly
	// once, on whichever path completes the request. Drain waits on it.
	pending *atomic.Int64
	// abandoned marks a caller that returned without its context being
	// canceled (server shutdown raced the response); checked together with
	// ctx.Err so no device work is spent on a response nobody reads.
	abandoned atomic.Bool
}

// fail completes the request with an error.
func (r *request) fail(err error) {
	r.err = err
	r.settle()
	close(r.done)
}

// settle removes the request from the server's in-flight count. Each
// completion path calls it exactly once, immediately before closing done.
func (r *request) settle() {
	if r.pending != nil {
		r.pending.Add(-1)
	}
}

// abandon marks the request as having no caller waiting on it.
func (r *request) abandon() { r.abandoned.Store(true) }

// isAbandoned reports whether the caller has given up on this request.
// The context check is what makes cancellation propagation prompt: cancel()
// publishes ctx.Err synchronously, so a request canceled while queued is
// visible to the batcher and workers without waiting for the caller's
// goroutine to be rescheduled.
func (r *request) isAbandoned() bool {
	return r.abandoned.Load() || (r.ctx != nil && r.ctx.Err() != nil)
}

// batch is one coalesced micro-batch handed to the worker pool.
type batch struct {
	entry *entry
	reqs  []*request
}

// runBatcher is the per-model coalescing loop: it blocks for the first
// request, then gathers more until the batch reaches the model's m_max or
// the first request has waited MaxLatency, and dispatches the result to the
// worker pool. One goroutine per registry entry.
func (s *Server) runBatcher(e *entry) {
	defer s.collWG.Done()
	for {
		select {
		case first := <-e.queue:
			s.dispatch(&batch{entry: e, reqs: s.gather(e, first)})
		case <-s.done:
			s.drain(e)
			return
		}
	}
}

// gather coalesces live requests behind first until the batch is full or
// MaxLatency has elapsed since first arrived. Requests that no longer need
// device work (caller canceled, deadline already lapsed) are reaped as they
// are pulled, so a backlog of corpses cannot dilute batch occupancy.
func (s *Server) gather(e *entry, first *request) []*request {
	max := int(e.maxBatch.Load())
	reqs := make([]*request, 0, max)
	if !s.reap(e, first, time.Now()) {
		reqs = append(reqs, first)
	}
	if max <= 1 {
		return reqs
	}
	// The latency bound is anchored at the first request's enqueue time,
	// not at batcher pickup: time already spent waiting in the queue
	// counts against its MaxLatency window.
	remain := s.cfg.MaxLatency - time.Since(first.enq)
	if remain <= 0 {
		// Saturation: the first request already waited out its flush
		// window in the queue, so the backlog holds at least one wave of
		// work. Racing an already-fired timer against the queue in the
		// select below would dispatch near-empty batches at exactly the
		// moment full batches are available — drain the ready backlog
		// up to m_max instead.
		return s.drainReady(e, reqs, max)
	}
	timer := time.NewTimer(remain)
	defer timer.Stop()
	for len(reqs) < max {
		select {
		case r := <-e.queue:
			if !s.reap(e, r, time.Now()) {
				reqs = append(reqs, r)
			}
		case <-timer.C:
			// Flush deadline: top up with whatever is already queued
			// before dispatching — a non-blocking drain adds no latency.
			return s.drainReady(e, reqs, max)
		case <-s.done:
			return reqs
		}
	}
	return reqs
}

// drainReady appends already-queued live requests without blocking until
// the batch reaches max or the queue is momentarily empty.
func (s *Server) drainReady(e *entry, reqs []*request, max int) []*request {
	for len(reqs) < max {
		select {
		case r := <-e.queue:
			if !s.reap(e, r, time.Now()) {
				reqs = append(reqs, r)
			}
		default:
			return reqs
		}
	}
	return reqs
}

// dispatch hands a batch to the first free worker. s.work is unbuffered,
// so while every worker is busy the batch stays here and keeps taking
// queued requests, up to m_max: the wave a worker finally runs is as full
// as the backlog allows, instead of a partial one that a flush timer sent
// out while no worker could take it. During shutdown the workers are still
// draining s.work (Close waits for the batchers before closing it), so
// the send cannot block forever.
func (s *Server) dispatch(b *batch) {
	if len(b.reqs) == 0 {
		return
	}
	e := b.entry
	for max := int(e.maxBatch.Load()); len(b.reqs) < max; {
		select {
		case s.work <- b:
			return
		case r := <-e.queue:
			if !s.reap(e, r, time.Now()) {
				b.reqs = append(b.reqs, r)
			}
		}
	}
	s.work <- b
}

// drain fails whatever is left in the queue at shutdown.
func (s *Server) drain(e *entry) {
	for {
		select {
		case r := <-e.queue:
			r.fail(ErrClosed)
		default:
			return
		}
	}
}
