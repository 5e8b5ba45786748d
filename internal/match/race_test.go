//go:build race

package match

func init() { raceEnabled = true }
