package vsr

import (
	"context"
	"sync"
	"time"
)

// Long-polls park at the repository up to watchPollTimeout; rounds after
// a failure or a resync wait watchRetryDelay.
const (
	watchPollTimeout = 10 * time.Second
	watchRetryDelay  = 500 * time.Millisecond
)

// Follower is the one watch state machine: it owns the journal cursor
// and the replication epoch the cursor belongs to, and decides when the
// caller's view is grounded from the repository — before the first
// watch round, in every round whose answer is a resync, and before the
// next round after a ground failed. Grounding raises the cursor to the
// position ground returns, so the deltas the walk subsumes are skipped
// rather than replayed over it. The follower feeds a single apply
// callback — Up on the first good round and on every recovery, Down on
// a failed round or ground and again whenever the failure changes,
// Resync when the journal no longer covers the cursor (before the
// ground it triggers), then each change delta in order, skipping those
// the cursor covers in the same epoch. What a delta means is the
// callback's business. Step drives one synchronous round, Run loops in
// the background; drive a follower from one goroutine at a time.
type Follower struct {
	v      *VSR
	ground func(context.Context) (uint64, error)
	apply  func(Delta)

	mu            sync.Mutex
	cursor, epoch uint64 // the cursor never regresses within an epoch

	// Stream state, touched only by the goroutine driving the follower.
	grounded bool // the last ground succeeded
	up       bool
	downErr  string
}

// Follow returns a follower of the change journal that hands every
// delta to apply. ground reads the repository into the caller's view and
// returns the journal position of that read (Walk's seq); the follower
// resumes after it. Nothing happens until Step or Run drives it.
func (v *VSR) Follow(ground func(context.Context) (seq uint64, err error), apply func(Delta)) *Follower {
	return &Follower{v: v, ground: ground, apply: apply}
}

// Cursor returns the highest journal sequence number delivered or
// covered by a ground, and the epoch it belongs to.
func (f *Follower) Cursor() (seq, epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor, f.epoch
}

// raise lifts the cursor to seq.
func (f *Follower) raise(seq uint64) {
	f.mu.Lock()
	f.cursor = max(f.cursor, seq)
	f.mu.Unlock()
}

// Step runs one watch round, parking at the repository up to timeout
// (zero probes), and delivers what it brought, grounding first if the
// follower is not grounded. The error is the round's transport failure
// or its ground's, already delivered as Down.
func (f *Follower) Step(ctx context.Context, timeout time.Duration) error {
	_, err := f.step(ctx, timeout)
	return err
}

// Run follows the journal until ctx is cancelled: a probe while the
// stream is down, so Up arrives without waiting out a long-poll, then
// long-polls. It pauses after a failure, and after a resync: a
// repository that lost its journal resyncs every round until the
// journal grows past the cursor.
func (f *Follower) Run(ctx context.Context) {
	for ctx.Err() == nil {
		timeout := watchPollTimeout
		if !f.up {
			timeout = 0
		}
		if resync, err := f.step(ctx, timeout); err == nil && !resync {
			continue
		}
		select {
		case <-time.After(watchRetryDelay):
		case <-ctx.Done():
		}
	}
}

func (f *Follower) step(ctx context.Context, timeout time.Duration) (resync bool, err error) {
	if !f.grounded {
		// The round then starts at the ground's position and carries
		// nothing the walk already read.
		if err := f.reground(ctx); err != nil {
			return false, err
		}
	}
	since, epoch := f.Cursor()
	changes, next, nextEpoch, resync, err := f.v.client.WatchEpoch(ctx, since, epoch, timeout)
	if err != nil {
		f.fail(ctx, err)
		return false, err
	}
	wasUp := f.up
	f.up, f.downErr = true, ""
	f.mu.Lock()
	if nextEpoch > f.epoch {
		// The repository failed over and replayed from the boundary the
		// regimes share: re-ground on that replay point before applying
		// anything, or the new regime's changes — numbered at or below
		// the old cursor — would be skipped as already seen.
		f.cursor, f.epoch = next, nextEpoch
		if len(changes) > 0 {
			f.cursor = changes[0].Seq - 1
		}
	}
	f.mu.Unlock()
	if !wasUp {
		f.apply(Delta{Op: DeltaUp, Seq: next})
	}
	if resync {
		f.apply(Delta{Op: DeltaResync, Seq: next})
		if err := f.reground(ctx); err != nil {
			return true, err
		}
	}
	for _, c := range changes {
		// The cursor check comes first: after a ground raised the
		// cursor, a covered change is dropped without decoding it.
		if cursor, _ := f.Cursor(); c.Seq <= cursor {
			continue
		}
		if d, ok := deltaFromChange(c); ok {
			f.apply(d)
			f.raise(d.Seq)
		}
	}
	f.raise(next) // an empty or fully filtered round still advances
	return resync, nil
}

// reground reads the repository through ground and raises the cursor to
// the read's position. A failed ground fails the round: it is delivered
// as Down and tried again before the next round.
func (f *Follower) reground(ctx context.Context) error {
	seq, err := f.ground(ctx)
	if f.grounded = err == nil; err != nil {
		f.fail(ctx, err)
		return err
	}
	f.raise(seq)
	return nil
}

// fail marks the stream down after err and delivers Down, unless err
// repeats the previous failure unchanged. Cancellation is not an outage.
func (f *Follower) fail(ctx context.Context, err error) {
	if ctx.Err() != nil {
		return
	}
	report := f.up || f.downErr != err.Error()
	f.up, f.downErr = false, err.Error()
	if report {
		f.apply(Delta{Op: DeltaDown, Err: err})
	}
}
