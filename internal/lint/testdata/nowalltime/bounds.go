// Bound plans are evaluated once per target: timing one evaluation
// inside the plan file is flagged.
package core

import "time"

// planNanos times one plan evaluation inside the plan file.
func planNanos(eval func()) int64 {
	t0 := time.Now() // want `wall-clock timing belongs at the executor boundary`
	eval()
	return int64(time.Since(t0)) // want `wall-clock timing belongs at the executor boundary`
}
