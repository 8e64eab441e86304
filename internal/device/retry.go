package device

import (
	"errors"

	"github.com/spitfire-db/spitfire/internal/vclock"
)

// The retry policy for fallible device operations: the buffer manager's NVM
// and SSD I/O and the WAL's buffer writes and log appends all run under it.
const (
	maxRetries        = 4         // re-attempts after the first failure
	retryBackoffNs    = 20_000    // first backoff (20 µs), doubling per retry
	retryBackoffMaxNs = 2_000_000 // backoff cap (2 ms)
)

// Retry runs op, re-attempting transient faults — ErrTransient, which
// includes torn writes — with exponential backoff. The backoff is simulated
// time charged to c, so retry storms show in the experiment clocks rather
// than in wall time. ErrPermanent and ErrCrashed are never retried: the
// first means the tier is gone, the second that the machine is going down.
// It returns how many retries were made alongside op's final error.
func Retry(c *vclock.Clock, op func() error) (retries int, err error) {
	back := int64(retryBackoffNs)
	for {
		if err = op(); err == nil {
			return retries, nil
		}
		if errors.Is(err, ErrPermanent) || errors.Is(err, ErrCrashed) || retries >= maxRetries {
			return retries, err
		}
		retries++
		c.Advance(back)
		if back *= 2; back > retryBackoffMaxNs {
			back = retryBackoffMaxNs
		}
	}
}
