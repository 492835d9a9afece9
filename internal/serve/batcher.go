package serve

import (
	"context"
	"sync"
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
	// state turns reqDelivered when a worker delivers the result, or
	// reqGone when the caller returns first (cancellation or shutdown); a
	// caller collecting a delivered result turns it reqGone too.
	state atomic.Int32
	// collect is the delivering worker's count of uncollected results.
	collect *sync.WaitGroup
}

// Request states; see request.state.
const (
	reqQueued int32 = iota
	reqDelivered
	reqGone
)

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

// leave records that the caller has returned from Predict, with or without
// the result. It runs exactly once per admitted request; leaving a
// delivered request releases the worker waiting in deliver.
func (r *request) leave() {
	if r.state.Swap(reqGone) == reqDelivered {
		r.collect.Done()
	}
}

// isAbandoned reports whether the caller has given up on this request, so
// no device work is spent on a response nobody reads. The context check is
// what makes cancellation propagation prompt: cancel() publishes ctx.Err
// synchronously, so a request canceled while queued is visible to the
// batcher and workers without waiting for the caller's goroutine to be
// rescheduled.
func (r *request) isAbandoned() bool {
	return r.state.Load() == reqGone || (r.ctx != nil && r.ctx.Err() != nil)
}

// batch is one coalesced micro-batch handed to the worker pool.
type batch struct {
	entry *entry
	reqs  []*request
}

// runBatcher is the per-model coalescing loop: it blocks for the first
// request, gathers whatever else is already queued, and dispatches the
// batch to the worker pool. One goroutine per registry entry.
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

// gather returns first plus the live requests already queued, up to the
// model's m_max, without waiting for more: an idle worker takes what is
// there, and while every worker is busy dispatch keeps filling the batch.
// Requests that no longer need device work (caller canceled, deadline
// lapsed) are reaped as they are pulled, so a backlog of corpses cannot
// dilute batch occupancy. The slice is sized to what is queued, not to
// m_max, which runs to millions of rows for a small model.
func (s *Server) gather(e *entry, first *request) []*request {
	max := int(e.maxBatch.Load())
	reqs := make([]*request, 0, min(max, 1+len(e.queue)))
	if !s.reap(e, first, time.Now()) {
		reqs = append(reqs, first)
	}
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
// as the backlog allows. During shutdown the workers are still
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
