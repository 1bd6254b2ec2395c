package counters

type (
	Stats struct {
		Hits, Misses int64
		Bytes        int64 `json:"bytes"`
		hidden       int
	}
	Count int
)
