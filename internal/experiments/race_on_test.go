//go:build race

package experiments

func init() { raceDetector = true }
