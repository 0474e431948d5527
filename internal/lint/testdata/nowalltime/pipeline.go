// The pipeline's per-item stage bodies are hot kernel code: timing a
// single verification inside them is flagged.
package core

import "time"

// verifyOne times one item inside a stage body.
func verifyOne(work func()) time.Duration {
	t0 := time.Now() // want `wall-clock timing belongs at the executor boundary`
	work()
	return time.Since(t0) // want `wall-clock timing belongs at the executor boundary`
}
