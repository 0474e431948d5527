// The index arena is read once per target: stamping a read with the
// wall clock is flagged.
package core

import "time"

// lookupStamp reads the wall clock beside an index lookup.
func lookupStamp() int64 {
	return time.Now().UnixNano() // want `wall-clock timing belongs at the executor boundary`
}
