package trace

import "errors"

// ErrCorrupt marks decode failures caused by damaged trace-store bytes:
// bad magic, an inconsistent footer or index, a checksum mismatch, an
// invalid class byte, or a group cut short. Wrapped errors name the group
// or field so callers can report exactly where the damage was found. The
// store reader never panics on corrupt input; it returns an ErrCorrupt
// from OpenStore or BlockAt, and a Cursor surfaces it through Err.
var ErrCorrupt = errors.New("trace: corrupt data")

// ErrSource is implemented by sources that can fail mid-stream (a Cursor
// over a damaged store). After Next returns false, Err distinguishes a
// clean end of trace (nil) from a decode failure.
type ErrSource interface {
	Source
	// Err returns the first decode error encountered, or nil.
	Err() error
}

// SourceErr returns the decode error src has encountered, or nil if src
// cannot fail or has not failed. Simulation drivers call this after
// draining a source so a damaged capture surfaces as an error instead of a
// silently short run.
func SourceErr(src Source) error {
	if es, ok := src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}
