package native

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrCancelled is the sentinel every *CancelError unwraps to. A
// cancelled join also unwraps to its context cause, so errors.Is works
// against ErrCancelled, context.Canceled, and context.DeadlineExceeded
// alike.
var ErrCancelled = errors.New("native: join cancelled")

// ErrOverBudget is the sentinel every *BudgetError unwraps to.
var ErrOverBudget = errors.New("native: partition pair over memory budget")

// CancelError reports a join stopped by its context, with the partial
// progress at the stop: how many partition pairs had fully joined, out
// of how many, and the rows those complete pairs produced. Partial
// output is never returned through the Result; the counts exist for
// diagnostics only.
type CancelError struct {
	Cause      error         // the context error (Canceled or DeadlineExceeded)
	PairsDone  int           // partition pairs fully joined before the stop
	PairsTotal int           // partition pairs the join planned
	RowsOut    int           // rows produced by the completed pairs
	Elapsed    time.Duration // join start to stop
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("native: join cancelled after %v (%d/%d partition pairs joined, %d rows discarded): %v",
		e.Elapsed.Round(time.Microsecond), e.PairsDone, e.PairsTotal, e.RowsOut, e.Cause)
}

func (e *CancelError) Unwrap() []error { return []error{ErrCancelled, e.Cause} }

// isCancellation reports whether err is a context stop, directly or
// wrapped (the spill tier returns plain ctx.Err() from page
// boundaries).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// asCancel wraps a cancellation-class error into a *CancelError
// carrying the given progress counts; other errors pass through.
func asCancel(err error, pairsDone, pairsTotal, rowsOut int) error {
	if err == nil || !isCancellation(err) {
		return err
	}
	return &CancelError{Cause: err, PairsDone: pairsDone, PairsTotal: pairsTotal, RowsOut: rowsOut}
}

// WrapCancel normalizes a cancellation-class error crossing a public
// boundary into a *CancelError, so callers see one cancellation type no
// matter which layer noticed the context first (scans return ctx.Err()
// unwrapped). Errors that already are a *CancelError — the morsel join
// builds them with pair-level progress — and errors of other classes
// pass through unchanged.
func WrapCancel(err error, elapsed time.Duration) error {
	var ce *CancelError
	if err == nil || errors.As(err, &ce) || !isCancellation(err) {
		return err
	}
	return &CancelError{Cause: err, Elapsed: elapsed}
}
