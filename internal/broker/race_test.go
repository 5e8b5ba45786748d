//go:build race

package broker

func init() { raceEnabled = true }
