package dataset

// DecodeCanonical exposes the reflection-free decoder to the external
// tests, which check that real campaign output takes it.
var DecodeCanonical = decodeCanonical
