package telemetry

// CallCount returns the number of Count, Observe, StartSpan and Event
// calls r has received.
func CallCount(r *Recorder) uint64 { return r.calls.Load() }
