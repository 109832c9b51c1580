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
// and the replication epoch the cursor belongs to, and feeds a single
// apply callback — Up on the first good round and on every recovery,
// Down on a failure and again whenever the failure changes, Resync when
// the journal no longer covers the cursor, then each change delta in
// order, skipping those the cursor covers in the same epoch. What a
// delta means is the callback's business. Step drives one synchronous
// round, Run loops in the background; drive a follower from one
// goroutine at a time.
type Follower struct {
	v     *VSR
	apply func(Delta)

	mu            sync.Mutex
	cursor, epoch uint64 // the cursor never regresses within an epoch
	up            bool
	downErr       string
}

// Follow returns a follower of the change journal that resumes after
// since and hands every delta to apply. Nothing happens until Step or
// Run drives it.
func (v *VSR) Follow(since uint64, apply func(Delta)) *Follower {
	return &Follower{v: v, apply: apply, cursor: since}
}

// Cursor returns the highest journal sequence number delivered or
// covered by a snapshot, and the epoch it belongs to.
func (f *Follower) Cursor() (seq, epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor, f.epoch
}

// Raise lifts the cursor to seq. A callback that reconciles from a
// snapshot on Up or Resync calls it with the snapshot's journal
// position, so the deltas the snapshot subsumes are skipped rather than
// replayed over it.
func (f *Follower) Raise(seq uint64) {
	f.mu.Lock()
	f.cursor = max(f.cursor, seq)
	f.mu.Unlock()
}

// Step runs one watch round, parking at the repository up to timeout
// (zero probes), and delivers what it brought. The error is the round's
// transport failure, already delivered as Down.
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
		f.mu.Lock()
		timeout := watchPollTimeout
		if !f.up {
			timeout = 0
		}
		f.mu.Unlock()
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
	since, epoch := f.Cursor()
	changes, next, nextEpoch, resync, err := f.v.client.WatchEpoch(ctx, since, epoch, timeout)
	f.mu.Lock()
	wasUp, lastErr := f.up, f.downErr
	if err != nil {
		if ctx.Err() == nil { // cancellation is not an outage
			f.up, f.downErr = false, err.Error()
		}
	} else {
		f.up, f.downErr = true, ""
	}
	if err == nil && nextEpoch > f.epoch {
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
	switch {
	case err != nil:
		if ctx.Err() == nil && (wasUp || lastErr != err.Error()) {
			f.apply(Delta{Op: DeltaDown, Err: err})
		}
		return false, err
	case !wasUp:
		f.apply(Delta{Op: DeltaUp, Seq: next})
	}
	if resync {
		f.apply(Delta{Op: DeltaResync, Seq: next})
	}
	for _, c := range changes {
		// The cursor check comes first: after a page walk raised the
		// cursor, a covered change is dropped without decoding it.
		if cursor, _ := f.Cursor(); c.Seq <= cursor {
			continue
		}
		if d, ok := deltaFromChange(c); ok {
			f.apply(d)
			f.Raise(d.Seq)
		}
	}
	f.Raise(next) // an empty or fully filtered round still advances
	return resync, nil
}
