//go:build race

package xcal

func init() { raceEnabled = true }
