package device

import (
	"errors"
	"fmt"
	"testing"

	"github.com/spitfire-db/spitfire/internal/vclock"
)

// TestRetryPolicy pins the one retry policy: a transient fault is retried
// four times with a 20 µs backoff that doubles, charged to the caller's
// clock; a permanent failure or a crash is returned at once.
func TestRetryPolicy(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fail        error // returned by the first failFor attempts
		failFor     int
		wantCalls   int
		wantRetries int
		wantNs      int64
		wantErr     error
	}{
		{"clean", nil, 0, 1, 0, 0, nil},
		{"transient clears", ErrTransient, 2, 3, 2, 60_000, nil},
		{"torn clears", &TornError{Frac: 0.5}, 1, 2, 1, 20_000, nil},
		{"transient persists", fmt.Errorf("nvm: %w", ErrTransient), 99, 5, 4, 300_000, ErrTransient},
		{"permanent", ErrPermanent, 99, 1, 0, 0, ErrPermanent},
		{"crashed", ErrCrashed, 99, 1, 0, 0, ErrCrashed},
	} {
		c := vclock.New()
		calls := 0
		retries, err := Retry(c, func() error {
			calls++
			if calls <= tc.failFor {
				return tc.fail
			}
			return nil
		})
		if calls != tc.wantCalls || retries != tc.wantRetries || c.Now() != tc.wantNs || !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: %d calls, %d retries, %d ns backoff, err %v; want %d, %d, %d, %v",
				tc.name, calls, retries, c.Now(), err, tc.wantCalls, tc.wantRetries, tc.wantNs, tc.wantErr)
		}
	}
}
