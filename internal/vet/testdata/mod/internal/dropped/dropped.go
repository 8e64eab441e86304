// Package dropped is a vet fixture: every way to discard a device error.
package dropped

import "fix/internal/device"

func Flush(b []byte) {
	device.WriteAt(0, b)        // want droppederr
	n, _ := device.ReadAt(0, b) // want droppederr
	_ = n
	go device.Sync()    // want droppederr
	defer device.Sync() // want droppederr

	// Consumed results are clean.
	if err := device.WriteAt(4, b); err != nil {
		_ = err
	}
	_ = device.Size() // no error in the signature: clean
}
