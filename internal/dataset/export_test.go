package dataset

// DecodeCanonical exposes the reflection-free decoder to the external
// tests, which check that real campaign output takes it.
var DecodeCanonical = decodeCanonical

// SplitRanges reports how many ranges the canonical decoder cuts each
// table of b into, in document order, or nil when b is not in the
// canonical layout.
func SplitRanges(b []byte) []int {
	_, tables, ok := splitCanonical(b)
	if !ok {
		return nil
	}
	n := make([]int, len(tables))
	for i, t := range tables {
		n[i] = t.ranges()
	}
	return n
}
