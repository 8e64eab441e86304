// Package device is a vet fixture standing in for the fault-injected device
// layer: its error results must never be discarded.
package device

import "errors"

// ErrTransient mimics the typed fault classification of internal/device.
var ErrTransient = errors.New("transient")

func WriteAt(off int64, b []byte) error { _ = off; _ = b; return ErrTransient }

func ReadAt(off int64, b []byte) (int, error) { _ = off; _ = b; return 0, ErrTransient }

func Sync() error { return nil }

// Size returns no error; calls to it are never flagged.
func Size() int64 { return 0 }
